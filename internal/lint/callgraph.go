package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The hot closure is every function reachable from a //bfetch:hotpath root
// through the intra-module call graph. The escape analyzer checks all of it,
// annotated or not, so an allocation cannot hide one helper below an
// annotation.
//
// Call edges are resolved without go/types, best-effort but deliberately
// conservative: same-package functions by name, pkg.F through the file's
// module-internal imports, and methods first by receiver-type inference
// (receiver/parameter declarations and struct field types, followed through
// selector chains) then by name across the calling file's package and
// module-internal imports. Calls that resolve to nothing in-module
// (builtins, interface dispatch on unknown types, func values, other
// modules) contribute no edge — hotpath implementations behind interfaces
// are expected to be annotated roots themselves, which the engine
// convention already guarantees.

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
			for _, t := range e.targets {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, hotFunc{t, queue[i].root})
				}
			}
		}
	}
	return queue
}

// ----------------------------------------------------------- function index --

// funcNode is one function or method declaration in the module.
type funcNode struct {
	p        *Package
	f        *ast.File
	decl     *ast.FuncDecl
	name     string // declared name
	recvType string // receiver type name, "" for plain functions
	hotpath  bool

	edgesOnce bool
	edgeList  []callEdge
}

func (n *funcNode) displayName() string {
	pkg := n.f.Name.Name
	if n.recvType != "" {
		return fmt.Sprintf("%s.%s.%s", pkg, n.recvType, n.name)
	}
	return fmt.Sprintf("%s.%s", pkg, n.name)
}

// callEdge is one call site with its resolved module-internal targets.
type callEdge struct {
	pos     token.Pos
	callee  string // base name as written at the call site
	targets []*funcNode
}

// funcIndex carries every function declaration in the module plus the type
// hints needed to resolve method calls.
type funcIndex struct {
	nodes []*funcNode

	byPkgFunc   map[string]*funcNode   // "rel|name" → plain function
	byPkgMethod map[string][]*funcNode // "rel|name" → methods with that name
	byBase      map[string]string      // package base name → rel

	// fieldType maps "rel|Type|field" to the named type of a struct field:
	// "rel2|Type2" (module-internal packages only).
	fieldType map[string]string
	// imports maps file → local import name → module-relative package dir.
	imports map[*ast.File]map[string]string
	// foreign maps file → local import name → import path, for imports
	// from outside the module.
	foreign map[*ast.File]map[string]string
	// modPath is the module path from go.mod ("repro"), used to recognize
	// module-internal imports.
	modPath string
}

func buildFuncIndex(pkgs []*Package) *funcIndex {
	fi := &funcIndex{
		byPkgFunc:   make(map[string]*funcNode),
		byPkgMethod: make(map[string][]*funcNode),
		byBase:      make(map[string]string),
		fieldType:   make(map[string]string),
		imports:     make(map[*ast.File]map[string]string),
		foreign:     make(map[*ast.File]map[string]string),
		modPath:     moduleImportPath(pkgs),
	}
	for _, p := range pkgs {
		fi.byBase[pkgBase(p.Rel)] = p.Rel
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			imp := make(map[string]string)
			foreign := make(map[string]string)
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				rel, internal := fi.moduleRelImport(path)
				name := pkgBase(path)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				if internal {
					imp[name] = rel
				} else {
					foreign[name] = path
				}
			}
			fi.imports[f] = imp
			fi.foreign[f] = foreign

			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					n := &funcNode{p: p, f: f, decl: d, name: d.Name.Name,
						hotpath: hasDirective(d.Doc, "bfetch:hotpath")}
					if d.Recv != nil {
						_, n.recvType = recvInfo(d)
					}
					fi.nodes = append(fi.nodes, n)
					if n.recvType == "" {
						fi.byPkgFunc[p.Rel+"|"+n.name] = n
					} else {
						fi.byPkgMethod[p.Rel+"|"+n.name] = append(fi.byPkgMethod[p.Rel+"|"+n.name], n)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok || st.Fields == nil {
							continue
						}
						for _, field := range st.Fields.List {
							ftype := fi.namedTypeOf(field.Type, f, p.Rel)
							if ftype == "" {
								continue
							}
							for _, name := range field.Names {
								fi.fieldType[p.Rel+"|"+ts.Name.Name+"|"+name.Name] = ftype
							}
						}
					}
				}
			}
		}
	}
	return fi
}

// moduleRelImport maps an import path to a module-relative dir, if the path
// is inside this module.
func (fi *funcIndex) moduleRelImport(path string) (string, bool) {
	if fi.modPath == "" {
		return "", false
	}
	if path == fi.modPath {
		return "", true
	}
	if strings.HasPrefix(path, fi.modPath+"/") {
		return path[len(fi.modPath)+1:], true
	}
	return "", false
}

// moduleImportPath infers the module path from any file's module-internal
// imports; falls back to scanning go.mod next to the root package.
func moduleImportPath(pkgs []*Package) string {
	for _, p := range pkgs {
		if p.Rel == "" {
			data, err := readGoModModule(p.Dir)
			if err == nil {
				return data
			}
		}
	}
	// No root package parsed: walk up from the first package dir.
	if len(pkgs) > 0 {
		dir := pkgs[0].Dir
		for i := 0; i < 10; i++ {
			if m, err := readGoModModule(dir); err == nil {
				return m
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return ""
}

// namedTypeOf resolves a field type expression to "rel|TypeName" when it
// names a struct type in this module ("" otherwise). Pointers are followed;
// slices/maps/funcs/interfaces are not.
func (fi *funcIndex) namedTypeOf(t ast.Expr, f *ast.File, selfRel string) string {
	for {
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
			continue
		}
		break
	}
	switch v := t.(type) {
	case *ast.Ident:
		return selfRel + "|" + v.Name
	case *ast.SelectorExpr:
		if x, ok := v.X.(*ast.Ident); ok {
			if rel, ok := fi.imports[f][x.Name]; ok {
				return rel + "|" + v.Sel.Name
			}
			if rel, ok := fi.byBase[x.Name]; ok {
				return rel + "|" + v.Sel.Name
			}
		}
	}
	return ""
}

// ------------------------------------------------------------- call edges --

// edges resolves (and memoizes) the outgoing call edges of a node.
func (fi *funcIndex) edges(n *funcNode) []callEdge {
	if n.edgesOnce {
		return n.edgeList
	}
	n.edgesOnce = true
	recvName := ""
	if n.decl.Recv != nil {
		recvName, _ = recvInfo(n.decl)
	}
	types := fi.localTypes(n, recvName)
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			n.edgeList = append(n.edgeList, fi.resolveCall(n, call, types))
		}
		return true
	})
	return n.edgeList
}

// localTypes maps the function's receiver and parameters to "rel|Type" for
// module-internal named types.
func (fi *funcIndex) localTypes(n *funcNode, recvName string) map[string]string {
	types := make(map[string]string)
	if recvName != "" && n.recvType != "" {
		types[recvName] = n.p.Rel + "|" + n.recvType
	}
	if n.decl.Type.Params != nil {
		for _, field := range n.decl.Type.Params.List {
			t := fi.namedTypeOf(field.Type, n.f, n.p.Rel)
			if t == "" {
				continue
			}
			for _, name := range field.Names {
				types[name.Name] = t
			}
		}
	}
	return types
}

// importName returns the package a selector call's qualifier names, if it
// names an import of n's file rather than a local identifier (the parser
// leaves package names unresolved).
func importName(x ast.Expr) (*ast.Ident, bool) {
	id, ok := x.(*ast.Ident)
	return id, ok && id.Obj == nil
}

// resolveCall resolves one call expression's module-internal targets.
func (fi *funcIndex) resolveCall(n *funcNode, call *ast.CallExpr, types map[string]string) callEdge {
	e := callEdge{pos: call.Pos()}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		e.callee = fun.Name
		if t := fi.byPkgFunc[n.p.Rel+"|"+fun.Name]; t != nil {
			e.targets = []*funcNode{t}
		}
	case *ast.SelectorExpr:
		e.callee = fun.Sel.Name
		if x, ok := importName(fun.X); ok {
			// pkg.F through a module-internal import.
			if rel, ok := fi.imports[n.f][x.Name]; ok {
				if t := fi.byPkgFunc[rel+"|"+fun.Sel.Name]; t != nil {
					e.targets = []*funcNode{t}
				}
				return e
			}
			if _, ok := fi.foreign[n.f][x.Name]; ok {
				return e
			}
		}
		// Method call: typed resolution first, name fallback second.
		if t := fi.typedReceiver(fun.X, types); t != "" {
			rel, typ, _ := strings.Cut(t, "|")
			for _, m := range fi.byPkgMethod[rel+"|"+fun.Sel.Name] {
				if m.recvType == typ {
					e.targets = []*funcNode{m}
					return e
				}
			}
			// Known type, no such method in-module (embedded/interface):
			// fall through to the name fallback.
		}
		e.targets = append(e.targets, fi.byPkgMethod[n.p.Rel+"|"+fun.Sel.Name]...)
		for _, rel := range fi.imports[n.f] {
			e.targets = append(e.targets, fi.byPkgMethod[rel+"|"+fun.Sel.Name]...)
		}
	}
	return e
}

// typedReceiver resolves the receiver expression of a method call to
// "rel|Type" by following identifier → selector chains through declared
// receiver/parameter types and struct field types.
func (fi *funcIndex) typedReceiver(x ast.Expr, types map[string]string) string {
	switch v := x.(type) {
	case *ast.Ident:
		return types[v.Name]
	case *ast.ParenExpr:
		return fi.typedReceiver(v.X, types)
	case *ast.StarExpr:
		return fi.typedReceiver(v.X, types)
	case *ast.UnaryExpr:
		return fi.typedReceiver(v.X, types)
	case *ast.SelectorExpr:
		base := fi.typedReceiver(v.X, types)
		if base == "" {
			return ""
		}
		return fi.fieldType[base+"|"+v.Sel.Name]
	}
	return "" // element types of index expressions are not tracked
}

func readGoModModule(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
}
