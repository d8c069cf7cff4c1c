package lint

import "go/ast"

// StatsReset structurally audits every Reset/ResetStats method:
// each field of the receiver struct must either be written by the method
// (directly, via a sub-field/element assignment, via a method call on the
// field, via a range that resets its elements, or by passing its address to
// a helper) or carry a //bfetch:noreset annotation declaring it
// learned/configuration state the reset deliberately preserves. This is the
// bug class PR 2's reset audit fixed by hand — a counter added to a struct
// but forgotten in ResetStats silently bleeds warmup state into the
// measurement window.
//
// Embedded (anonymous) fields are exempt: their own Reset methods are
// audited separately.
func StatsReset(p *Package) []Diagnostic {
	var out []Diagnostic
	structs := collectStructs(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "Reset" && fd.Name.Name != "ResetStats" {
				continue
			}
			recvName, typeName := recvInfo(fd)
			fields, known := structs[typeName]
			if !known {
				continue
			}
			accounted := accountedFields(fd, recvName)
			if accounted == nil {
				continue // *recv = T{...}: whole-struct overwrite
			}
			for _, field := range fields {
				if accounted[field.name] || hasDirective(field.doc, "bfetch:noreset") ||
					hasDirective(field.comment, "bfetch:noreset") {
					continue
				}
				p.report(&out, f, fd.Name.Pos(), "statsreset", "",
					"field %s.%s is not reset by %s and lacks a //bfetch:noreset annotation",
					typeName, field.name, fd.Name.Name)
			}
		}
	}
	return out
}

// resetField is one named field of a struct, with the comments a
// //bfetch:noreset annotation may sit in.
type resetField struct {
	name         string
	doc, comment *ast.CommentGroup
}

// collectStructs gathers every named struct type in the package with its
// named fields. Embedded fields are left out: their own Reset methods are
// audited separately.
func collectStructs(p *Package) map[string][]resetField {
	out := make(map[string][]resetField)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				var fields []resetField
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						fields = append(fields, resetField{name.Name, field.Doc, field.Comment})
					}
				}
				out[ts.Name.Name] = fields
			}
		}
	}
	return out
}

// recvInfo extracts the receiver variable name and its struct type name.
func recvInfo(fd *ast.FuncDecl) (recvName, typeName string) {
	if len(fd.Recv.List) == 0 {
		return "", ""
	}
	r := fd.Recv.List[0]
	if len(r.Names) > 0 {
		recvName = r.Names[0].Name
	}
	t := r.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers: T[P] — unwrap the index.
	if ix, ok := t.(*ast.IndexExpr); ok {
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typeName = id.Name
	}
	return recvName, typeName
}

// accountedFields returns the set of first-level receiver fields the method
// writes. A nil return means the whole struct is overwritten (*recv = T{...}).
func accountedFields(fd *ast.FuncDecl, recvName string) map[string]bool {
	if recvName == "" || recvName == "_" {
		return make(map[string]bool)
	}
	acc := make(map[string]bool)
	whole := false
	markLHS := func(e ast.Expr) {
		// Strip *, (), [i], .sub chains down to recv.Field; a bare *recv
		// dereference marks the whole struct.
		for {
			switch v := e.(type) {
			case *ast.ParenExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.SelectorExpr:
				if x, ok := v.X.(*ast.Ident); ok && x.Name == recvName {
					acc[v.Sel.Name] = true
					return
				}
				e = v.X
			case *ast.Ident:
				if v.Name == recvName {
					whole = true
				}
				return
			default:
				return
			}
		}
	}
	// recvField resolves an expression to a first-level receiver field name.
	recvField := func(e ast.Expr) (string, bool) {
		for {
			switch v := e.(type) {
			case *ast.ParenExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.UnaryExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.SliceExpr:
				e = v.X
			case *ast.SelectorExpr:
				if x, ok := v.X.(*ast.Ident); ok && x.Name == recvName {
					return v.Sel.Name, true
				}
				e = v.X
			default:
				return "", false
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markLHS(lhs)
			}
		case *ast.IncDecStmt:
			markLHS(n.X)
		case *ast.CallExpr:
			// recv.Field.Method(...) delegates the field's reset.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if name, ok := recvField(sel.X); ok {
					acc[name] = true
				}
			}
			// reset helpers taking &recv.Field (or recv.Field for
			// reference types).
			for _, arg := range n.Args {
				if name, ok := recvField(arg); ok {
					acc[name] = true
				}
			}
		case *ast.RangeStmt:
			// for i := range recv.Field { recv.Field[i] = ... } — the range
			// expression names the field being reset elementwise.
			if name, ok := recvField(n.X); ok {
				acc[name] = true
			}
		}
		return true
	})
	if whole {
		return nil
	}
	return acc
}
