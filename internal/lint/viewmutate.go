package lint

// viewmutate guards the storage engine's central invariant since the
// snapshot-isolation refactor: a dbView published through the DB's
// atomic pointer is immutable forever. All mutation happens in
// view.go's copy-on-write batch constructors, which clone exactly the
// levels they touch before writing. A write through a view anywhere
// else — db.go taking a shortcut during a drop, a new feature patching
// an index map in place — silently corrupts snapshots held by
// concurrent readers, a bug the race detector only catches when a
// reader happens to overlap.
//
// The analyzer is scoped to packages named "tsdb" and flags any
// assignment, ++/--, or delete() whose target is reached through an
// expression of type dbView (or *dbView) outside view.go. Mutating a
// batch-owned *shard/*series/*column local is allowed — ownership of
// those clones is established in view.go and cannot be checked
// file-locally — but the moment a write path starts at a view value,
// it must live in view.go or carry a //lint:ignore with a reason.
// It also flags a Store/Swap/CompareAndSwap of a *dbView outside
// (*DB).commit, Open and restore: a mutator that publishes itself skips
// the WAL append and the decode-cache purge commit does.

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// ViewMutate flags writes through a tsdb view outside view.go and views published outside commit.
var ViewMutate = &Analyzer{
	Name: "viewmutate",
	Doc:  "flags writes through a tsdb dbView outside view.go's copy-on-write constructors (published views are immutable) and views published outside commit",
	Run:  runViewMutate,
}

// publishOps are the atomic.Pointer methods that install a new view.
var publishOps = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

// mayPublish reports whether fn is (*DB).commit or the package-level Open or restore.
func (p *Pass) mayPublish(fn *ast.FuncDecl) bool {
	if fn.Recv == nil {
		return fn.Name.Name == "Open" || fn.Name.Name == "restore"
	}
	nt := namedType(p.TypesInfo.TypeOf(fn.Recv.List[0].Type))
	return fn.Name.Name == "commit" && nt != nil && nt.Obj().Name() == "DB"
}

func runViewMutate(p *Pass) error {
	if p.Pkg.Name() != "tsdb" {
		return nil
	}
	for _, f := range p.Files {
		cow := filepath.Base(p.Filename(f.Pos())) == "view.go" // the copy-on-write layer itself
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			publisher := fn != nil && p.mayPublish(fn)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						p.checkViewTarget(lhs, cow)
					}
				case *ast.IncDecStmt:
					p.checkViewTarget(st.X, cow)
				case *ast.CallExpr:
					if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) == 2 {
						if _, isBuiltin := p.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
							p.checkViewTarget(st.Args[0], cow)
						}
					}
					if sel, ok := st.Fun.(*ast.SelectorExpr); ok && publishOps[sel.Sel.Name] && len(st.Args) > 0 && !publisher && p.isView(st.Args[len(st.Args)-1]) {
						p.Reportf(st.Pos(), "view published outside commit; route the mutation through commit, which logs, publishes and purges")
					}
				}
				return true
			})
		}
	}
	return nil
}

// isView reports whether e is a dbView or a pointer to one.
func (p *Pass) isView(e ast.Expr) bool {
	nt := namedType(p.TypesInfo.TypeOf(e))
	return nt != nil && nt.Obj().Name() == "dbView" && nt.Obj().Pkg() == p.Pkg
}

// checkViewTarget walks a write target's selector/index chain and
// reports if any link is reached through a dbView-typed expression,
// unless the write sits in the copy-on-write layer (cow).
func (p *Pass) checkViewTarget(e ast.Expr, cow bool) {
	for !cow {
		var base ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.ParenExpr:
			base = x.X
		default:
			return
		}
		if p.isView(base) {
			p.Reportf(e.Pos(), "write through a dbView outside view.go; published views are immutable — derive the next view with the copy-on-write constructors")
			return
		}
		e = base
	}
}
