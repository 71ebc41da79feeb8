// Package lint is monsterlint's analysis framework plus the project's
// analyzers. It is a deliberately small, dependency-free re-creation of
// the golang.org/x/tools/go/analysis surface (Analyzer, Pass, Report)
// on top of the standard library's go/ast and go/types: the build
// environment vendors no third-party modules, and the eight project
// invariants the suite enforces need nothing more.
//
// An analyzer is here because, seeded into the real code, its bug
// draws a finding that go vet, the compiler and the test suite do not
// (DESIGN.md §6h records the audit). Rules something smaller enforces
// are not: copying a lock or an atomic is go vet's copylocks, which
// the gate runs beside this suite, and mixed atomic/plain access does
// not compile because every atomic in the tree is a sync/atomic type.
// The invariants are documented per analyzer (one file each) and in
// DESIGN.md §6c. Deliberate exceptions are suppressed in the source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
//
// placed on the offending line or the line directly above it, or with
//
//	//lint:file-ignore <analyzer> reason
//
// anywhere in a file to silence one analyzer for that whole file.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:ignore
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass hands one analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *facts
}

// facts caches the interprocedural structures built for one package so
// every analyzer in a RunPackage shares one call graph and one set of
// function summaries.
type facts struct {
	cg   *CallGraph
	sums map[*CGNode]*funcSummary
}

// callGraph returns the package's call graph, building it on first use.
func (p *Pass) callGraph() *CallGraph {
	if p.facts == nil {
		p.facts = &facts{}
	}
	if p.facts.cg == nil {
		p.facts.cg = buildCallGraph(p)
	}
	return p.facts.cg
}

// summaries returns the per-function lock summaries, computed
// bottom-up over the call graph on first use.
func (p *Pass) summaries() map[*CGNode]*funcSummary {
	g := p.callGraph()
	if p.facts.sums == nil {
		p.facts.sums = computeSummaries(p, g)
	}
	return p.facts.sums
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename reports the file a node position belongs to.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

// A Diagnostic is one raw finding, positioned by token.Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Finding is a diagnostic resolved to a file position, the unit the
// driver prints and the tests assert on. Suppressed findings are kept
// (the driver prints them, marked) but do not fail the run.
type Finding struct {
	Position   token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
	if f.Suppressed {
		s += " [suppressed]"
	}
	return s
}

// All returns the monsterlint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		ClockDiscipline,
		ViewMutate,
		ErrDrop,
		CtxPropagate,
		LockOrder,
		GoroutineLeak,
		WALExhaustive,
		StatsSurface,
	}
}

// ByName resolves a comma-separated analyzer list; "" or "all" selects
// the whole suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// errorType is the universe error interface, used by analyzers to
// recognize error-returning calls.
var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether any result of the call is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errorType)
}

// deref unwraps pointer types.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedType reports the named type behind t (after pointer deref), or
// nil when t is unnamed.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// isPkgQualified reports whether expr is a selector pkg.Name for the
// given import path, e.g. time.Now or atomic.AddInt64.
func isPkgQualified(info *types.Info, expr ast.Expr, pkgPath string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
