package lint

import (
	"go/ast"
	"strconv"
)

// randSafe lists math/rand constructors that build a locally seeded
// generator — the required idiom. Everything else at package level draws
// from the global, unseeded source.
var randSafe = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Determinism enforces the packages-under-measurement reproducibility
// contract: simulation results must be bit-identical run to run regardless
// of scheduling, so
//
//   - top-level math/rand functions (the shared global source) are banned;
//     workload builders must use a local seeded *rand.Rand
//     (rand.New(rand.NewSource(k))) — no escape hatch, fix the code;
//   - time.Now / time.Since feed wall-clock into results; uses that only
//     report elapsed time (runner throughput stats) are annotated
//     //bfetch:wallclock;
//   - ranging over a map while appending to a slice or printing publishes
//     iteration order into results. The sanctioned idiom — collect keys,
//     sort, iterate the sorted slice — is recognized: an append inside a map
//     range is allowed when a sort.* call on the same slice follows the
//     loop. //bfetch:orderok suppresses the rare deliberate case.
func Determinism(p *Package, idx *moduleIndex) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		randName, timeName := importNames(f)
		fields := mapFields(p)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d := &detCheck{p: p, f: f, idx: idx, out: &out,
				randName: randName, timeName: timeName, mapFields: fields}
			d.mapVars = d.collectMapVars(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool { return d.visit(fd, n) })
		}
	}
	return out
}

type detCheck struct {
	p         *Package
	f         *ast.File
	idx       *moduleIndex
	out       *[]Diagnostic
	randName  string          // local name of the math/rand import, "" if absent
	timeName  string          // local name of the time import, "" if absent
	mapFields map[string]bool // field names of map type declared in this package
	mapVars   map[string]bool // local variables of map type in the current function
}

func (d *detCheck) visit(fd *ast.FuncDecl, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if d.randName != "" && x.Name == d.randName && !randSafe[sel.Sel.Name] &&
			ast.IsExported(sel.Sel.Name) {
			d.p.report(d.out, d.f, n.Pos(), "determinism", "",
				"global math/rand.%s draws from the shared unseeded source; use a local rand.New(rand.NewSource(seed))", sel.Sel.Name)
		}
		if d.timeName != "" && x.Name == d.timeName &&
			(sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			d.p.report(d.out, d.f, n.Pos(), "determinism", "bfetch:wallclock",
				"time.%s reads the wall clock; annotate //bfetch:wallclock if this only feeds elapsed-time stats", sel.Sel.Name)
		}
	case *ast.RangeStmt:
		if d.isMapExpr(n.X) {
			d.mapRange(fd, n)
			// Keep descending: rand/time calls inside the body still need
			// their own checks, and nested map ranges get their own visit.
		}
	}
	return true
}

// mapRange inspects the body of a range over a map for order-sensitive
// publication.
func (d *detCheck) mapRange(fd *ast.FuncDecl, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if d.isMapExpr(n.X) {
				return false // the nested range gets its own mapRange via visit
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" || i >= len(n.Lhs) {
					continue
				}
				base := baseIdent(n.Lhs[i])
				if base != nil && sortDominates(fd, rs, base.Name) {
					continue // collect-keys-then-sort idiom
				}
				name := "<expr>"
				if base != nil {
					name = base.Name
				}
				d.p.report(d.out, d.f, call.Pos(), "determinism", "bfetch:orderok",
					"append to %q inside a map range publishes iteration order; sort the keys first (or sort %q afterwards)", name, name)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fmt" {
					d.p.report(d.out, d.f, n.Pos(), "determinism", "bfetch:orderok",
						"fmt.%s inside a map range emits output in iteration order; iterate sorted keys", sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// sortDominates reports whether a sort.* call mentioning name appears in the
// function after the range statement — the collect-then-sort idiom.
func sortDominates(fd *ast.FuncDecl, rs *ast.RangeStmt, name string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "sort" {
			return true
		}
		for _, arg := range call.Args {
			hit := false
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && id.Name == name {
					hit = true
				}
				return !hit
			})
			if hit {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isMapExpr reports whether the expression is map-typed, best-effort without
// go/types: tracked local variables, fields whose declared type in this
// package is a map, calls to module functions returning maps, and map
// literals.
func (d *detCheck) isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return d.mapVars[v.Name]
	case *ast.SelectorExpr:
		return d.mapFields[v.Sel.Name]
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if idxs := d.callMapResults(v); len(idxs) > 0 {
			return true
		}
	}
	return false
}

// callMapResults returns the map-typed result indices of a called module
// function, if known.
func (d *detCheck) callMapResults(call *ast.CallExpr) []int {
	if d.idx == nil {
		return nil
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return d.idx.mapResults[d.p.Rel+"|"+fun.Name]
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return d.idx.mapResults[x.Name+"."+fun.Sel.Name]
		}
	}
	return nil
}

// collectMapVars gathers the function's map-typed names: parameters declared
// map[...], locals built with make(map...), map literals, or assigned from
// calls with map-typed results.
func (d *detCheck) collectMapVars(fd *ast.FuncDecl) map[string]bool {
	vars := make(map[string]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if _, ok := field.Type.(*ast.MapType); ok {
				for _, name := range field.Names {
					vars[name.Name] = true
				}
			}
		}
	}
	mark := func(name string, rhs ast.Expr) {
		switch v := rhs.(type) {
		case *ast.CompositeLit:
			if _, ok := v.Type.(*ast.MapType); ok {
				vars[name] = true
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
				if _, isMap := v.Args[0].(*ast.MapType); isMap {
					vars[name] = true
				}
				return
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						mark(id.Name, n.Rhs[i])
					}
				}
			}
			// Multi-value: a, b := f() where f returns maps at known indices.
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					for _, mi := range d.callMapResults(call) {
						if mi < len(n.Lhs) {
							if id, ok := n.Lhs[mi].(*ast.Ident); ok {
								vars[id.Name] = true
							}
						}
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						if _, isMap := vs.Type.(*ast.MapType); isMap {
							for _, name := range vs.Names {
								vars[name.Name] = true
							}
						}
						for i, name := range vs.Names {
							if i < len(vs.Values) {
								mark(name.Name, vs.Values[i])
							}
						}
					}
				}
			}
		}
		return true
	})
	return vars
}

// mapFields returns the names of struct fields declared with map types
// anywhere in the package (selector-typed map detection without go/types).
func mapFields(p *Package) map[string]bool {
	if p.mapFieldCache != nil {
		return p.mapFieldCache
	}
	out := make(map[string]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if _, isMap := field.Type.(*ast.MapType); isMap {
					for _, name := range field.Names {
						out[name.Name] = true
					}
				}
			}
			return true
		})
	}
	p.mapFieldCache = out
	return out
}

// importNames returns the local names of the math/rand and time imports.
func importNames(f *ast.File) (randName, timeName string) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "math/rand", "math/rand/v2":
			if name == "" {
				randName = "rand"
			} else {
				randName = name
			}
		case "time":
			if name == "" {
				timeName = "time"
			} else {
				timeName = name
			}
		}
	}
	return randName, timeName
}

// moduleIndex records, without go/types, which module functions return
// maps, so a caller's map-typed variables can be tracked across packages.
type moduleIndex struct {
	// mapResults maps "pkgbase.FuncName" and "rel|FuncName" to the indices
	// of map-typed results in that function's result list.
	mapResults map[string][]int
}

func buildModuleIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{mapResults: make(map[string][]int)}
	for _, p := range pkgs {
		base := pkgBase(p.Rel)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Recv != nil || d.Type.Results == nil {
					continue
				}
				var mapIdx []int
				i := 0
				for _, field := range d.Type.Results.List {
					n := len(field.Names)
					if n == 0 {
						n = 1
					}
					for k := 0; k < n; k++ {
						if _, isMap := field.Type.(*ast.MapType); isMap {
							mapIdx = append(mapIdx, i)
						}
						i++
					}
				}
				if len(mapIdx) > 0 {
					idx.mapResults[base+"."+d.Name.Name] = mapIdx
					idx.mapResults[p.Rel+"|"+d.Name.Name] = mapIdx
				}
			}
		}
	}
	return idx
}

// baseIdent resolves the root identifier of an expression like x,
// x[i:j], or (x) — nil for selector-rooted expressions.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
