package lint

// ctxpropagate keeps the pipeline cancellable. The builder's fan-out,
// the collector's sweep, and the DES harness all run under a
// context.Context; a goroutine spawned — or an unconditional loop
// entered — without consulting that context outlives cancellation,
// leaks across collection cycles, and turns shutdown into a hang. The
// paper's overhead evaluation depends on cycles that stop when told
// to.
//
// Scope: packages named builder, collector, des, core, ingest and tsdb
// (where the concurrency lives; a tsdb query runs its series groups on
// a worker pool under the consumer's context). Inside any function
// that takes a context.Context, a `go` statement or a condition-less
// `for` loop must mention *some* context value (the parameter or one
// derived from it) somewhere in its body — passing ctx to a callee,
// selecting on ctx.Done(), or checking ctx.Err() all qualify.

import (
	"go/ast"
	"go/types"
)

// CtxPropagate flags goroutines and unbounded loops that ignore an
// in-scope context.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "flags goroutine spawns and condition-less loops in builder/collector/des/core/ingest/tsdb that ignore an in-scope context.Context (uncancellable work leaks)",
	Run:  runCtxPropagate,
}

// ctxScopedPackages are the package names the invariant applies to.
var ctxScopedPackages = map[string]bool{
	"builder":   true,
	"collector": true,
	"des":       true,
	"core":      true,
	"ingest":    true,
	"tsdb":      true,
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether the function type declares a
// context.Context parameter.
func hasContextParam(p *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if isContextType(p.TypesInfo.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// mentionsContext reports whether any identifier in the subtree has
// type context.Context.
func mentionsContext(p *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.TypesInfo.Uses[id]; obj != nil && isContextType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}

func runCtxPropagate(p *Pass) error {
	if !ctxScopedPackages[p.Pkg.Name()] {
		return nil
	}
	inspectFiles(p, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !hasContextParam(p, fd.Type) {
			return true
		}
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			switch st := m.(type) {
			case *ast.FuncLit:
				// A nested function with its own ctx parameter starts a
				// fresh scope; its body is judged when it runs.
				if hasContextParam(p, st.Type) {
					return false
				}
			case *ast.GoStmt:
				if !mentionsContext(p, st.Call) {
					p.Reportf(st.Pos(), "goroutine ignores the in-scope context.Context; pass ctx in (or select on ctx.Done()) so cancellation reaches it")
				}
			case *ast.ForStmt:
				if st.Cond == nil && !mentionsContext(p, st) {
					p.Reportf(st.Pos(), "condition-less loop ignores the in-scope context.Context; check ctx.Err() or select on ctx.Done() so it can stop")
				}
			}
			return true
		})
		return true
	})
	return nil
}
