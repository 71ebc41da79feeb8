package lint

// FuzzWALExhaustive feeds mutated Go source through the full
// interprocedural pipeline — parse, type-check, call graph, dataflow,
// the four analyzers built on them — seeded with the walexhaustive fixture corpus
// (which is deliberately import-free, so the harness needs no
// importer). The property under test is robustness: malformed or
// half-type-checked syntax must never panic the engine; findings are
// free to vary.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func FuzzWALExhaustive(f *testing.F) {
	dir := filepath.Join("testdata", "src", "walexhaustive")
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, src string) {
		fuzzDeepAnalyzers(src)
	})
}

// fuzzDeepAnalyzers runs the interprocedural analyzers over one source
// string, tolerating parse and type errors (partial type information
// is exactly the hostile input the engine must survive).
func fuzzDeepAnalyzers(src string) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
	if err != nil {
		return
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Error: func(error) {}} // collect-and-continue
	pkg, _ := conf.Check("fuzz", fset, []*ast.File{file}, info)
	if pkg == nil {
		return
	}
	shared := &facts{}
	for _, a := range []*Analyzer{LockOrder, GoroutineLeak, WALExhaustive, StatsSurface} {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     []*ast.File{file},
			Pkg:       pkg,
			TypesInfo: info,
			report:    func(Diagnostic) {},
			facts:     shared,
		}
		_ = a.Run(pass)
	}
}

// TestFuzzSeedsClean replays the seed corpus through the fuzz body so
// `go test` exercises it even without -fuzz.
func TestFuzzSeedsClean(t *testing.T) {
	dir := filepath.Join("testdata", "src", "walexhaustive")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fuzzDeepAnalyzers(string(data))
	}
}
