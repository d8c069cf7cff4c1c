package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// pureStdlib are the packages outside the module a hot function may call
// without a hatch: pure arithmetic that never allocates.
var pureStdlib = map[string]bool{"math": true, "math/bits": true}

// Escape is the hot-path allocation gate. Rather than guessing from the AST
// what might allocate, it checks what the compiler decided (facts from
// Load or ParseFacts), over the whole hot closure — every function
// reachable from a //bfetch:hotpath root, annotated or not:
//
//	(a) a value the compiler moved or escaped to the heap fails. The
//	    compiler reports an inlined callee's escapes at the call site, so a
//	    caller sees through its inlined helpers; //bfetch:alloc-ok on the
//	    line is the cold-path hatch;
//	(b) a call to a function or method declared outside the module fails
//	    unless its package is math or math/bits: the compiler's facts stop
//	    at the module boundary, so strconv.Itoa or a strings.Builder method
//	    would allocate unseen. Conversions are not calls.
//	    //bfetch:alloc-ok is the hatch here too;
//	(c) a call inside an annotated function whose module callee the
//	    compiler did not inline fails, unless the callee is itself
//	    //bfetch:hotpath (the big pipeline stages are deliberate non-inline
//	    boundaries);
//	(d) a loop annotated //bfetch:bce that retains a bounds check fails —
//	    there is no hatch; fix the loop or drop the annotation.
func Escape(pkgs []*Package, facts *FactTable) []Diagnostic {
	var out []Diagnostic
	fidx := buildFuncIndex(pkgs)
	for _, h := range fidx.hotClosure() {
		relFile := moduleRelFile(facts.Root, h.n.p, h.n.f)
		if relFile == "" {
			continue
		}
		name := h.n.decl.Name.Name
		where := "//bfetch:hotpath " + name
		if !h.n.hotpath {
			where = fmt.Sprintf("%s (reached from //bfetch:hotpath %s)", name, h.root.displayName())
		}
		checkEscapes(h.n, relFile, where, facts, &out)
		checkForeignCalls(h.n, fidx, where, &out)
		if h.n.hotpath {
			checkInlining(h.n, relFile, fidx, facts, &out)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if relFile := moduleRelFile(facts.Root, p, f); relFile != "" {
				checkBCELoops(p, f, relFile, facts, &out)
			}
		}
	}
	return out
}

// moduleRelFile returns the module-root-relative slash path of f, or "" if
// it lies outside root.
func moduleRelFile(root string, p *Package, f *ast.File) string {
	abs := p.Fset.Position(f.Package).Filename
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	return filepath.ToSlash(rel)
}

// checkEscapes reports every compiler-witnessed heap escape inside the
// function's body range.
func checkEscapes(n *funcNode, relFile, where string, facts *FactTable, out *[]Diagnostic) {
	p, fd := n.p, n.decl
	start := p.Fset.Position(fd.Body.Pos()).Line
	end := p.Fset.Position(fd.Body.End()).Line
	for line := start; line <= end; line++ {
		for _, fact := range facts.FactsAt(relFile, line) {
			if fact.Kind != FactEscape {
				continue
			}
			// Position the diagnostic at the fact's own line so the
			// alloc-ok hatch on that line applies.
			pos := posOnLine(p, n.f, fd, fact.Line)
			p.report(out, n.f, pos, "escape", "bfetch:alloc-ok",
				"compiler: %s escapes to heap inside %s", fact.Name, where)
		}
	}
}

// checkForeignCalls reports every call to a function or method declared
// outside the module, other than in math and math/bits.
func checkForeignCalls(n *funcNode, fidx *funcIndex, where string, out *[]Diagnostic) {
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(n.p.Info, call)
		if fn == nil || fn.Pkg() == nil || fidx.module[fn.Pkg()] || pureStdlib[fn.Pkg().Path()] {
			return true
		}
		n.p.report(out, n.f, call.Pos(), "escape", "bfetch:alloc-ok",
			"call to %s inside %s leaves the module, where the compiler witness ends; hot code may call only math and math/bits",
			fn.FullName(), where)
		return true
	})
}

// checkInlining walks the call sites of an annotated function and requires
// each module-resolved callee to be inlined or annotated itself.
func checkInlining(n *funcNode, relFile string, fidx *funcIndex, facts *FactTable, out *[]Diagnostic) {
	for _, e := range fidx.edges(n) {
		if e.target.hotpath {
			// Under the hotpath contract itself: the big pipeline stages
			// are deliberate non-inline boundaries.
			continue
		}
		line := n.p.Fset.Position(e.pos).Line
		inlined := false
		for _, fact := range facts.FactsAt(relFile, line) {
			if fact.Kind == FactInlineCall && factBaseName(fact.Name) == e.callee {
				inlined = true
				break
			}
		}
		if inlined {
			continue
		}
		// Find the compiler's verdict on the callee, preferring facts
		// positioned in the target's own file.
		reason := ""
		targetFile := moduleRelFile(facts.Root, e.target.p, e.target.f)
		for _, fact := range facts.CannotInline(e.callee) {
			reason = fact.Detail
			if fact.File == targetFile {
				break
			}
		}
		if reason == "" {
			// Callee is inlinable in general but was not inlined at this
			// site (indirect use, budget interaction). Only report when the
			// compiler knows the function at all — otherwise stay silent
			// rather than guess.
			if len(facts.CanInline(e.callee)) == 0 {
				continue
			}
			reason = "inlinable, but not inlined at this call site"
		}
		n.p.report(out, n.f, e.pos, "escape", "",
			"call to %s in //bfetch:hotpath %s is not inlined (%s); annotate the callee //bfetch:hotpath",
			e.callee, n.decl.Name.Name, reason)
	}
}

// checkBCELoops enforces //bfetch:bce: the for/range statement on the line
// after the marker must have no surviving bounds check anywhere in its
// source range.
func checkBCELoops(p *Package, f *ast.File, relFile string, facts *FactTable, out *[]Diagnostic) {
	marks := p.markerLines(f, "bfetch:bce")
	if len(marks) == 0 {
		return
	}
	claimed := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch v := n.(type) {
		case *ast.ForStmt:
			body = v.Body
		case *ast.RangeStmt:
			body = v.Body
		default:
			return true
		}
		line := p.Fset.Position(n.Pos()).Line
		if !marks[line] && !marks[line-1] {
			return true
		}
		claimed[line] = true
		claimed[line-1] = true
		start := p.Fset.Position(n.Pos()).Line
		end := p.Fset.Position(body.End()).Line
		for l := start; l <= end; l++ {
			for _, fact := range facts.FactsAt(relFile, l) {
				if fact.Kind == FactBoundsCheck {
					pos := posOnLine(p, f, nil, fact.Line)
					p.report(out, f, pos, "escape", "",
						"//bfetch:bce loop retains a bounds check (%s at line %d); restructure the indexing or drop the annotation",
						fact.Name, fact.Line)
				}
			}
		}
		return true
	})
	for line := range marks {
		if !claimed[line] && !claimed[line+1] {
			p.report(out, f, f.Pos(), "escape", "",
				"line %d: //bfetch:bce is not attached to a for/range statement", line)
		}
	}
}

// posOnLine returns a token.Pos on the given line of f — the first AST node
// starting there (searching inside fd's body when provided, the whole file
// otherwise) — so suppression markers on that line match. Falls back to the
// scope's own position so diagnostics always carry one.
func posOnLine(p *Package, f *ast.File, fd *ast.FuncDecl, line int) token.Pos {
	var scope ast.Node = f
	if fd != nil {
		scope = fd.Body
	}
	best := token.NoPos
	ast.Inspect(scope, func(n ast.Node) bool {
		if n == nil || best.IsValid() {
			return false
		}
		if p.Fset.Position(n.Pos()).Line == line {
			best = n.Pos()
			return false
		}
		return true
	})
	if best.IsValid() {
		return best
	}
	return scope.Pos()
}
