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

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// ViewMutate flags writes reached through a tsdb view outside view.go.
var ViewMutate = &Analyzer{
	Name: "viewmutate",
	Doc:  "flags writes through a tsdb dbView outside view.go's copy-on-write constructors (published views are immutable)",
	Run:  runViewMutate,
}

func runViewMutate(p *Pass) error {
	if p.Pkg.Name() != "tsdb" {
		return nil
	}
	for _, f := range p.Files {
		if filepath.Base(p.Filename(f.Pos())) == "view.go" {
			continue // the copy-on-write layer itself
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					p.checkViewTarget(lhs)
				}
			case *ast.IncDecStmt:
				p.checkViewTarget(st.X)
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "delete" && len(st.Args) == 2 {
					if _, isBuiltin := p.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						p.checkViewTarget(st.Args[0])
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkViewTarget walks a write target's selector/index chain and
// reports if any link is reached through a dbView-typed expression.
func (p *Pass) checkViewTarget(e ast.Expr) {
	for {
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
		if nt := namedType(p.TypesInfo.TypeOf(base)); nt != nil {
			if obj := nt.Obj(); obj.Name() == "dbView" && obj.Pkg() == p.Pkg {
				p.Reportf(e.Pos(), "write through a dbView outside view.go; published views are immutable — derive the next view with the copy-on-write constructors")
				return
			}
		}
		e = base
	}
}
