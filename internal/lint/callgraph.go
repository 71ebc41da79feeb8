package lint

// The interprocedural layer: a package-level call graph built on
// go/types. Nodes are function bodies — declared functions and methods
// plus function literals — and edges are the calls the type information
// can resolve:
//
//   - static calls to package functions and concrete methods,
//   - calls through interface values, bounded CHA-style to the concrete
//     types declared in the same package,
//   - calls through function values, matched by signature against the
//     address-taken functions and literals of the package.
//
// Cross-package callees (no body in the package) are not edges: the
// graph never follows them. That bound keeps construction a single
// pass over the already type-checked syntax and is the right fidelity
// for the invariants monsterlint enforces: lock ordering and goroutine
// escape analysis are per-subsystem properties, and each subsystem
// here is one package.
//
// The graph is built lazily, once per RunPackage, and shared by every
// analyzer in the run through the Pass's facts.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A CGNode is one function body in the call graph: either a declared
// function/method (Fn, Decl set) or a function literal (Lit set).
type CGNode struct {
	Fn   *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	File *ast.File     // enclosing file

	callees []*CGNode // in-package callees with bodies, deduplicated
}

// Body returns the node's statement list.
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Pos returns the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Name renders the node for diagnostics: "(*DB).WritePoints",
// "replayWAL", or "function literal" for anonymous bodies.
func (n *CGNode) Name() string {
	if n.Lit != nil {
		return "function literal"
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), types.RelativeTo(n.Fn.Pkg())), n.Fn.Name())
	}
	return n.Fn.Name()
}

// callTargets is the resolution of one call expression.
type callTargets struct {
	static []*types.Func // direct function/method callees
	cha    []*types.Func // interface-call candidates (same-package concrete types)
	lits   []*ast.FuncLit
	// dynamic reports that the call goes through a function value whose
	// target set was approximated (lits/static hold the signature-matched
	// address-taken candidates, possibly empty).
	dynamic bool
}

// A CallGraph indexes every function body of one package.
type CallGraph struct {
	fset *token.FileSet
	info *types.Info
	pkg  *types.Package

	nodes map[*types.Func]*CGNode
	lits  map[*ast.FuncLit]*CGNode
	order []*CGNode // deterministic: file order, then position

	// addrTaken maps a receiver-less signature string to the functions
	// and literals whose value escapes into a variable, field, argument,
	// or return — the candidate set for calls through function values.
	addrTaken map[string][]*CGNode

	// calledFun marks call-expression Fun nodes, so a *types.Func use
	// outside that set is an address-taken function value.
	calledFun map[ast.Node]bool
}

// buildCallGraph constructs the graph for the pass's package.
func buildCallGraph(p *Pass) *CallGraph {
	g := &CallGraph{
		fset:      p.Fset,
		info:      p.TypesInfo,
		pkg:       p.Pkg,
		nodes:     make(map[*types.Func]*CGNode),
		lits:      make(map[*ast.FuncLit]*CGNode),
		addrTaken: make(map[string][]*CGNode),
		calledFun: make(map[ast.Node]bool),
	}
	// Pass 1: nodes and the called-position index.
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if fn, ok := g.info.Defs[n.Name].(*types.Func); ok {
					node := &CGNode{Fn: fn, Decl: n, File: file}
					g.nodes[fn] = node
					g.order = append(g.order, node)
				}
			case *ast.FuncLit:
				node := &CGNode{Lit: n, File: file}
				g.lits[n] = node
				g.order = append(g.order, node)
			case *ast.CallExpr:
				fun := ast.Unparen(n.Fun)
				g.calledFun[fun] = true
				if se, ok := fun.(*ast.SelectorExpr); ok {
					g.calledFun[se.Sel] = true
				}
			}
			return true
		})
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Pos() < g.order[j].Pos() })

	// Pass 2: address-taken functions and literals, keyed by signature.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if g.calledFun[n] {
					return true
				}
				if fn, ok := g.info.Uses[n].(*types.Func); ok {
					if node := g.nodes[fn]; node != nil {
						g.markAddrTaken(node, fn.Type())
					}
				}
			case *ast.SelectorExpr:
				if g.calledFun[n] {
					return true // a direct call, but descend: n.X may capture values
				}
				if sel, ok := g.info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					if fn, ok := sel.Obj().(*types.Func); ok {
						if node := g.nodes[fn]; node != nil {
							// A method value's type drops the receiver.
							g.markAddrTaken(node, g.info.TypeOf(n))
						}
					}
				}
			case *ast.FuncLit:
				if !g.calledFun[n] {
					g.markAddrTaken(g.lits[n], g.info.TypeOf(n))
				}
			}
			return true
		})
	}

	// Pass 3: edges. Each node's own statements only — nested literal
	// bodies contribute edges to their own nodes.
	for _, node := range g.order {
		seen := make(map[*CGNode]bool)
		walkOwnStmts(node.Body(), func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			t := g.CalleesOf(call)
			for _, fn := range t.static {
				g.addEdge(node, fn, seen)
			}
			for _, fn := range t.cha {
				g.addEdge(node, fn, seen)
			}
			for _, lit := range t.lits {
				if ln := g.lits[lit]; ln != nil && !seen[ln] {
					seen[ln] = true
					node.callees = append(node.callees, ln)
				}
			}
		})
	}
	return g
}

func (g *CallGraph) addEdge(from *CGNode, to *types.Func, seen map[*CGNode]bool) {
	if node := g.nodes[to]; node != nil && !seen[node] {
		seen[node] = true
		from.callees = append(from.callees, node)
	}
}

func (g *CallGraph) markAddrTaken(node *CGNode, t types.Type) {
	key := dynSigKey(t)
	if key == "" {
		return
	}
	for _, n := range g.addrTaken[key] {
		if n == node {
			return
		}
	}
	g.addrTaken[key] = append(g.addrTaken[key], node)
}

// dynSigKey canonicalizes a function type to a receiver-less signature
// string without parameter or result names (a literal names them as it
// likes), the matching key for calls through function values.
func dynSigKey(t types.Type) string {
	sig, ok := t.(*types.Signature)
	if !ok {
		return ""
	}
	unnamed := func(tup *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", tup.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}

// Nodes returns every function body of the package in source order.
func (g *CallGraph) Nodes() []*CGNode { return g.order }

// NodeOf returns the node for a declared function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode { return g.nodes[fn] }

// LitNode returns the node for a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *CGNode { return g.lits[lit] }

// FuncsNamed returns the declared functions (and methods) with the
// given name, in source order.
func (g *CallGraph) FuncsNamed(name string) []*CGNode {
	var out []*CGNode
	for _, n := range g.order {
		if n.Fn != nil && n.Fn.Name() == name {
			out = append(out, n)
		}
	}
	return out
}

// Reachable returns the set of nodes reachable from the starts through
// in-package edges, including the starts themselves.
func (g *CallGraph) Reachable(starts ...*CGNode) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var stack []*CGNode
	for _, s := range starts {
		if s != nil && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.callees {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// CalleesOf resolves one call expression to its possible targets.
func (g *CallGraph) CalleesOf(call *ast.CallExpr) callTargets {
	var t callTargets
	fun := ast.Unparen(call.Fun)
	if tv, ok := g.info.Types[fun]; ok && tv.IsType() {
		return t // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		t.lits = append(t.lits, fun)
	case *ast.Ident:
		switch obj := g.info.Uses[fun].(type) {
		case *types.Func:
			t.static = append(t.static, obj)
		case *types.Var:
			g.resolveDynamic(&t, obj.Type())
		}
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					break
				}
				if types.IsInterface(sel.Recv()) {
					t.cha = g.chaCandidates(sel.Recv(), fn)
				} else {
					t.static = append(t.static, fn)
				}
			case types.MethodExpr:
				if fn, ok := sel.Obj().(*types.Func); ok {
					t.static = append(t.static, fn)
				}
			case types.FieldVal:
				g.resolveDynamic(&t, g.info.TypeOf(fun))
			}
			break
		}
		// Qualified identifier: pkg.F.
		switch obj := g.info.Uses[fun.Sel].(type) {
		case *types.Func:
			t.static = append(t.static, obj)
		case *types.Var:
			g.resolveDynamic(&t, obj.Type())
		}
	default:
		// Call of a call result or index expression: function value.
		g.resolveDynamic(&t, g.info.TypeOf(fun))
	}
	return t
}

func (g *CallGraph) resolveDynamic(t *callTargets, typ types.Type) {
	t.dynamic = true
	for _, node := range g.addrTaken[dynSigKey(typ)] {
		if node.Fn != nil {
			t.static = append(t.static, node.Fn)
		} else {
			t.lits = append(t.lits, node.Lit)
		}
	}
}

// chaCandidates returns the concrete implementations, among the named
// types declared in this package, of an interface method — the bounded
// class-hierarchy treatment of interface calls.
func (g *CallGraph) chaCandidates(iface types.Type, m *types.Func) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	scope := g.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		pt := types.NewPointer(t)
		if !types.Implements(t, it) && !types.Implements(pt, it) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, g.pkg, m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// walkOwnStmts visits every node lexically inside body without
// descending into nested function literals: a literal's statements
// belong to the literal's own graph node.
func walkOwnStmts(body *ast.BlockStmt, fn func(ast.Node)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
