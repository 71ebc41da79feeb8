package lint

import (
	"fmt"
	"go/ast"
	"sort"
)

// RunPackage runs analyzers over one loaded package and returns every
// finding, sorted by position. Findings matched by a //lint:ignore
// directive are returned with Suppressed set rather than dropped, so
// drivers can report them without failing on them. Malformed
// directives (missing reason) and stale directives (naming an analyzer
// that ran and matched nothing) are findings of the pseudo-analyzer
// "suppression". One facts cache — the call graph and the function
// summaries — is shared by every analyzer in the run.
func RunPackage(l *Loader, pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var diags []Diagnostic
	shared := &facts{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      l.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     shared,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}

	supp := make(map[string]*suppressions) // filename -> directives
	var findings []Finding
	for _, f := range pkg.Files {
		name := l.Fset.Position(f.Pos()).Filename
		s := collectSuppressions(l.Fset, f)
		supp[name] = s
		for _, pos := range s.malformed {
			findings = append(findings, Finding{
				Position: l.Fset.Position(pos),
				Analyzer: "suppression",
				Message:  "lint:ignore directive needs an analyzer list and a reason",
			})
		}
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		suppressed := false
		if s := supp[pos.Filename]; s != nil && s.suppresses(d.Analyzer, pos.Line) {
			suppressed = true
		}
		findings = append(findings, Finding{Position: pos, Analyzer: d.Analyzer, Message: d.Message, Suppressed: suppressed})
	}

	// With every diagnostic matched, unmatched directives are stale.
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, s := range supp {
		for _, st := range s.stale(active) {
			pos := l.Fset.Position(st.pos)
			findings = append(findings, Finding{
				Position:   pos,
				Analyzer:   "suppression",
				Message:    fmt.Sprintf("stale suppression: %s matches no finding on these lines", st.name),
				Suppressed: s.suppresses("suppression", pos.Line),
			})
		}
	}
	sortFindings(findings)
	return findings, nil
}

// Run loads the given patterns and runs analyzers over every package.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := RunPackage(l, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Position, fs[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
}

// inspectFiles walks every file of the pass. The loader never parses
// _test.go files: tests are exempt from all invariants — they may use
// wall clocks, drop errors, and spawn free goroutines.
func inspectFiles(p *Pass, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
