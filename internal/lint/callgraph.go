package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The hot closure is every function reachable from a //bfetch:hotpath root
// through the intra-module call graph. The escape analyzer checks all of it,
// annotated or not, so an allocation cannot hide one helper below an
// annotation.
//
// A call's target is the *types.Func go/types recorded for the called name
// (the generic declaration for an instantiation), mapped to its declaration.
// Calls without a declared module target (builtins, conversions, interface
// dispatch, func values, other modules) contribute no edge — hotpath
// implementations behind interfaces are expected to be annotated roots
// themselves, which the engine convention already guarantees.

// hotFunc is one member of the hot closure with the root it was first
// reached from (itself, for an annotated function).
type hotFunc struct {
	n, root *funcNode
}

// hotClosure returns every function reachable from a //bfetch:hotpath root,
// roots first, in breadth-first order.
func (fi *funcIndex) hotClosure() []hotFunc {
	seen := make(map[*funcNode]bool)
	var queue []hotFunc
	for _, n := range fi.nodes {
		if n.hotpath {
			seen[n] = true
			queue = append(queue, hotFunc{n, n})
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, e := range fi.edges(queue[i].n) {
			if !seen[e.target] {
				seen[e.target] = true
				queue = append(queue, hotFunc{e.target, queue[i].root})
			}
		}
	}
	return queue
}

// funcNode is one function or method declaration in the module.
type funcNode struct {
	p        *Package
	f        *ast.File
	decl     *ast.FuncDecl
	recvType string // receiver type name, "" for plain functions
	hotpath  bool

	edgesOnce bool
	edgeList  []callEdge
}

func (n *funcNode) displayName() string {
	pkg := n.f.Name.Name
	if n.recvType != "" {
		return fmt.Sprintf("%s.%s.%s", pkg, n.recvType, n.decl.Name.Name)
	}
	return fmt.Sprintf("%s.%s", pkg, n.decl.Name.Name)
}

// callEdge is one call site with its module-internal target.
type callEdge struct {
	pos    token.Pos
	callee string // name of the called function
	target *funcNode
}

// funcIndex maps every function declaration in the module to its node.
type funcIndex struct {
	nodes  []*funcNode
	byFunc map[*types.Func]*funcNode
	module map[*types.Package]bool // the loaded packages
}

func buildFuncIndex(pkgs []*Package) *funcIndex {
	fi := &funcIndex{byFunc: make(map[*types.Func]*funcNode), module: make(map[*types.Package]bool)}
	for _, p := range pkgs {
		fi.module[p.Types] = true
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				n := &funcNode{p: p, f: f, decl: d, hotpath: hasDirective(d.Doc, "bfetch:hotpath")}
				if d.Recv != nil {
					_, n.recvType = recvInfo(d)
				}
				fi.nodes = append(fi.nodes, n)
				if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
					fi.byFunc[fn] = n
				}
			}
		}
	}
	return fi
}

// edges resolves (and memoizes) the outgoing call edges of a node: the calls
// whose target is declared in the module.
func (fi *funcIndex) edges(n *funcNode) []callEdge {
	if n.edgesOnce {
		return n.edgeList
	}
	n.edgesOnce = true
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if fn := calleeFunc(n.p.Info, call); fi.byFunc[fn] != nil {
				n.edgeList = append(n.edgeList, callEdge{call.Pos(), fn.Name(), fi.byFunc[fn]})
			}
		}
		return true
	})
	return n.edgeList
}

// calleeFunc returns the function or method a call names — its generic
// declaration for an instantiation — or nil for builtins, conversions and
// calls through func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = v.X
	case *ast.IndexListExpr:
		fun = v.X
	}
	var id *ast.Ident
	switch v := fun.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Origin()
	}
	return nil
}
