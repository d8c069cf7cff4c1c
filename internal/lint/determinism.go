package lint

import (
	"go/ast"
	"go/types"
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
//     loop. There is no hatch.
//
// Package qualifiers and map types come from go/types.
func Determinism(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch path, name := p.pkgCall(n); {
					case (path == "math/rand" || path == "math/rand/v2") && !randSafe[name]:
						p.report(&out, f, n.Pos(), "determinism", "",
							"global math/rand.%s draws from the shared unseeded source; use a local rand.New(rand.NewSource(seed))", name)
					case path == "time" && (name == "Now" || name == "Since"):
						p.report(&out, f, n.Pos(), "determinism", "bfetch:wallclock",
							"time.%s reads the wall clock; annotate //bfetch:wallclock if this only feeds elapsed-time stats", name)
					}
				case *ast.RangeStmt:
					// Keep descending: rand/time calls inside the body still
					// need their own checks, and nested map ranges get their
					// own mapRange.
					if p.isMap(n.X) {
						mapRange(p, f, fd, n, &out)
					}
				}
				return true
			})
		}
	}
	return out
}

// pkgCall returns the import path and name of a pkg.Name(...) call whose
// qualifier is an imported package, or "" for any other call.
func (p *Package) pkgCall(call *ast.CallExpr) (path, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
		return pn.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}

// isMap reports whether e's type is a map.
func (p *Package) isMap(e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRange inspects the body of a range over a map for order-sensitive
// publication.
func mapRange(p *Package, f *ast.File, fd *ast.FuncDecl, rs *ast.RangeStmt, out *[]Diagnostic) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if p.isMap(n.X) {
				return false // the nested range gets its own mapRange
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
				if base != nil && sortDominates(p, fd, rs, base.Name) {
					continue // collect-keys-then-sort idiom
				}
				name := "<expr>"
				if base != nil {
					name = base.Name
				}
				p.report(out, f, call.Pos(), "determinism", "",
					"append to %q inside a map range publishes iteration order; sort the keys first (or sort %q afterwards)", name, name)
			}
		case *ast.CallExpr:
			if path, name := p.pkgCall(n); path == "fmt" {
				p.report(out, f, n.Pos(), "determinism", "",
					"fmt.%s inside a map range emits output in iteration order; iterate sorted keys", name)
			}
		}
		return true
	})
}

// sortDominates reports whether a sort.* call mentioning name appears in the
// function after the range statement — the collect-then-sort idiom.
func sortDominates(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, name string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if path, _ := p.pkgCall(call); path != "sort" {
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
