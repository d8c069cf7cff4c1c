// Package lint is the repository's custom static-analysis suite: it
// enforces the invariants the simulator's performance and reproducibility
// rest on, using only the standard library (the module stays
// dependency-free). One `go list -e -export -deps -json` run (Load) says
// which files each module package compiles, where its standard-library
// imports' gc export data lies and, on stderr, what the compiler decided.
// Every package is type-checked once with go/types; a package that fails to
// build or type-check fails the run. Five analyzers run on every invocation:
//
//   - escape: the hot-path allocation gate. It builds the module with the
//     compiler's -m=2 and bounds-check diagnostics (facts.go) and checks
//     every function reachable from a //bfetch:hotpath root (the per-cycle
//     simulation kernel) through the typed call graph — annotated or not —
//     for heap escapes, calls to functions and methods outside the module
//     other than math and math/bits, non-inlined calls out of annotated
//     functions, and bounds checks left in //bfetch:bce loops. The facts
//     come from the loader's `go list` run, so Go's build cache replays
//     them for up-to-date packages and recompiles a package whenever it or
//     anything it imports changes.
//   - syncorder: no channel send while a mutex is held.
//   - determinism: no package under internal/ may consult global
//     randomness or wall clocks, or publish results from a map iteration
//     without an explicit sort.
//   - statsreset: every struct with a Reset/ResetStats method must account
//     for all of its fields — each field is either assigned in the method or
//     explicitly annotated //bfetch:noreset.
//   - nonet: no package under internal/ may depend on net, so the
//     simulator links no network stack. It reads go list's Deps and reports
//     each import that brings net in.
//
// Escape hatches are deliberate and auditable: //bfetch:alloc-ok,
// //bfetch:wallclock and //bfetch:sync-ok suppress a single finding on the
// same or the following line; //bfetch:noreset marks a struct field as
// learned/configuration state that a stats reset must preserve. DESIGN.md
// §6b documents the contract and annotation grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // syncorder, determinism, statsreset, nonet or escape
	Message  string
}

// String formats the finding the way compilers do: file:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked directory of non-test Go files.
type Package struct {
	Rel   string // module-relative directory, "" for the root
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// netUsers holds every package the module's build lists that is net
	// or depends on it (shared by all packages of one Load).
	netUsers map[string]bool

	// markers caches, per file, the line numbers carrying each //bfetch:
	// suppression marker.
	markers map[*ast.File]map[string]map[int]bool
}

// Analyzers names the analyzers RunAll applies, in gate order.
var Analyzers = []string{"syncorder", "determinism", "statsreset", "nonet", "escape"}

// RunResult is the outcome of the gate.
type RunResult struct {
	Diags    []Diagnostic
	Packages int
}

// RunAll loads the module at root and applies every analyzer, returning the
// surviving (unsuppressed) diagnostics sorted by position. A package that
// fails to type-check, a tree that does not compile, or a toolchain whose
// diagnostic format the fact parser does not recognize (ErrNoFacts) is an
// error.
func RunAll(root string) (RunResult, error) {
	pkgs, facts, err := Load(root)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{Packages: len(pkgs)}
	for _, p := range pkgs {
		res.Diags = append(res.Diags, SyncOrder(p)...)
		res.Diags = append(res.Diags, StatsReset(p)...)
		if strings.HasPrefix(p.Rel, "internal/") {
			res.Diags = append(res.Diags, Determinism(p)...)
			res.Diags = append(res.Diags, NoNet(p)...)
		}
	}
	res.Diags = append(res.Diags, Escape(pkgs, facts)...)
	sortDiags(res.Diags)
	return res, nil
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
}

// ---------------------------------------------------------------- markers --

// markerLines returns the set of lines in f whose comments carry marker
// (e.g. "bfetch:alloc-ok"), computing the file's marker table on first use.
func (p *Package) markerLines(f *ast.File, marker string) map[int]bool {
	if p.markers == nil {
		p.markers = make(map[*ast.File]map[string]map[int]bool)
	}
	byMarker, ok := p.markers[f]
	if !ok {
		byMarker = make(map[string]map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "bfetch:") {
					continue
				}
				name := text
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					name = text[:i]
				}
				line := p.Fset.Position(c.Pos()).Line
				if byMarker[name] == nil {
					byMarker[name] = make(map[int]bool)
				}
				byMarker[name][line] = true
			}
		}
		p.markers[f] = byMarker
	}
	return byMarker[marker]
}

// suppressed reports whether pos is covered by marker: the marker comment
// sits on the same line or on the line immediately above.
func (p *Package) suppressed(f *ast.File, pos token.Pos, marker string) bool {
	lines := p.markerLines(f, marker)
	if lines == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	return lines[line] || lines[line-1]
}

// report appends a diagnostic unless a suppression marker covers it.
func (p *Package) report(out *[]Diagnostic, f *ast.File, pos token.Pos,
	analyzer, marker, format string, args ...any) {
	if marker != "" && p.suppressed(f, pos, marker) {
		return
	}
	*out = append(*out, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// hasDirective reports whether the comment group contains the given
// //bfetch: directive. Directive-style comments (no space after //) are
// excluded from CommentGroup.Text, so the raw list is scanned.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
