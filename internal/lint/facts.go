package lint

import (
	"bufio"
	"errors"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler-witness layer: it parses the escape-analysis,
// inlining and bounds-check-elimination output of the loader's one
// `go list -export` run (Load compiles the module in diagnostic mode) into a
// position-indexed fact table. Go's build cache is the only cache: it keys
// each package on its sources, flags, toolchain and every dependency (whose
// inlinable bodies shape the package's own facts) and replays the
// diagnostics of an up-to-date package, so a warm run compiles nothing and a
// change to an imported package recompiles its importers.
//
// The contract with the toolchain is deliberately narrow — exactly five line
// shapes are recognized (DESIGN.md §6b):
//
//	file.go:L:C: can inline NAME with cost N as: ...
//	file.go:L:C: cannot inline NAME: REASON
//	file.go:L:C: inlining call to NAME
//	file.go:L:C: X escapes to heap[: ...]   |   moved to heap: X
//	file.go:L:C: Found IsInBounds | IsSliceInBounds
//
// Everything else (param-leak traces, indented explanation lines, stdlib
// positions) is ignored. If the toolchain emits no recognizable fact for
// the module, Load fails with ErrNoFacts rather than passing on an empty
// table.

// factsGCFlags are the compiler flags the witness layer builds with: full
// escape/inline diagnostics plus the bounds-check-elimination debug stream.
const factsGCFlags = "-m=2 -d=ssa/check_bce/debug=1"

// FactKind classifies one compiler diagnostic.
type FactKind uint8

const (
	// FactEscape — a value at this position is heap-allocated
	// ("escapes to heap" / "moved to heap").
	FactEscape FactKind = iota
	// FactCanInline — the function declared here is inlinable.
	FactCanInline
	// FactCannotInline — the function declared here exceeds the inlining
	// budget or is otherwise uninlinable; Detail carries the reason.
	FactCannotInline
	// FactInlineCall — the call at this position was inlined; Name is the
	// callee as the compiler spells it (possibly package-qualified).
	FactInlineCall
	// FactBoundsCheck — the SSA backend kept a bounds check here.
	FactBoundsCheck
)

func (k FactKind) String() string {
	switch k {
	case FactEscape:
		return "escape"
	case FactCanInline:
		return "can-inline"
	case FactCannotInline:
		return "cannot-inline"
	case FactInlineCall:
		return "inline-call"
	case FactBoundsCheck:
		return "bounds-check"
	}
	return "unknown"
}

// Fact is one parsed compiler diagnostic, positioned in a module file.
type Fact struct {
	File   string // module-root-relative, slash-separated
	Line   int
	Col    int
	Kind   FactKind
	Name   string // function name for inline facts, subject text for escapes
	Detail string // cannot-inline reason / raw message tail
}

// FactTable indexes the witnessed facts for the whole module.
type FactTable struct {
	Root   string            // absolute module root the File paths are relative to
	ByFile map[string][]Fact // facts per module-relative file, sorted by line, col

	// cannotInline maps every cannot-inline fact by function base name
	// (e.g. "next" for "(*bmIter).next") to its facts, for call-site
	// matching without type information.
	cannotInline map[string][]Fact
	// canInline is the same index for can-inline facts.
	canInline map[string][]Fact
}

// ErrNoFacts reports that the compiler ran but its output contained no
// recognizable diagnostics — a toolchain whose format this parser does not
// understand. It fails the gate: an empty fact table would pass every check.
var ErrNoFacts = errors.New("lint: compiler produced no recognizable -m=2/BCE diagnostics (toolchain format change?)")

// ParseFacts parses a diagnostic stream (as emitted by
// `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`) into facts sorted by
// line and column within each file, without running the compiler. The
// toolchain-format pinning tests feed it recorded outputs from several Go
// versions.
func ParseFacts(root string, output []byte) *FactTable {
	table := &FactTable{Root: root, ByFile: make(map[string][]Fact)}
	sc := bufio.NewScanner(strings.NewReader(string(output)))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	seen := make(map[Fact]bool)
	for sc.Scan() {
		f, ok := parseFactLine(sc.Text())
		if !ok {
			continue
		}
		// -m=2 emits escape facts twice (once with a trailing trace, once
		// bare); dedup on the full fact.
		k := f
		k.Detail = ""
		if seen[k] {
			continue
		}
		seen[k] = true
		table.ByFile[f.File] = append(table.ByFile[f.File], f)
	}
	for _, facts := range table.ByFile {
		sort.Slice(facts, func(i, j int) bool {
			if facts[i].Line != facts[j].Line {
				return facts[i].Line < facts[j].Line
			}
			return facts[i].Col < facts[j].Col
		})
	}
	table.index()
	return table
}

// index files each inlining fact under its callee, visiting files in
// sorted order so that each callee's list, and the reason a finding quotes
// from it, is the same on every run.
func (t *FactTable) index() {
	t.cannotInline = make(map[string][]Fact)
	t.canInline = make(map[string][]Fact)
	files := make([]string, 0, len(t.ByFile))
	for file := range t.ByFile {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		for _, f := range t.ByFile[file] {
			switch f.Kind {
			case FactCannotInline:
				t.cannotInline[factBaseName(f.Name)] = append(t.cannotInline[factBaseName(f.Name)], f)
			case FactCanInline:
				t.canInline[factBaseName(f.Name)] = append(t.canInline[factBaseName(f.Name)], f)
			}
		}
	}
}

// FactsAt returns the facts recorded for one line of a module-relative file.
func (t *FactTable) FactsAt(file string, line int) []Fact {
	facts := t.ByFile[file]
	i := sort.Search(len(facts), func(i int) bool { return facts[i].Line >= line })
	j := i
	for j < len(facts) && facts[j].Line == line {
		j++
	}
	return facts[i:j]
}

// CannotInline returns the cannot-inline facts whose function base name
// matches name (receiver qualifiers stripped: "(*bmIter).next" matches
// "next").
func (t *FactTable) CannotInline(name string) []Fact { return t.cannotInline[name] }

// CanInline is the can-inline analogue of CannotInline.
func (t *FactTable) CanInline(name string) []Fact { return t.canInline[name] }

// ------------------------------------------------------------------ parser --

var factPosRE = regexp.MustCompile(`^([^\s:][^:]*\.go):(\d+):(\d+): (.*)$`)

// parseFactLine recognizes exactly the five diagnostic shapes the contract
// pins. Lines positioned outside the module (absolute paths — the stdlib),
// positions whose line or column is not a positive int, indented
// escape-trace continuations, and every other -m=2 shape (leaking param,
// parameter tags, ...) fall through.
func parseFactLine(line string) (Fact, bool) {
	m := factPosRE.FindStringSubmatch(line)
	if m == nil {
		return Fact{}, false
	}
	file := filepath.ToSlash(m[1])
	if filepath.IsAbs(m[1]) || strings.HasPrefix(file, "..") {
		return Fact{}, false // stdlib or out-of-module position
	}
	// Root-package builds spell positions "./file.go" on newer toolchains;
	// the table is keyed by the bare relative path.
	file = strings.TrimPrefix(file, "./")
	ln, err := strconv.Atoi(m[2])
	if err != nil || ln < 1 {
		return Fact{}, false
	}
	col, err := strconv.Atoi(m[3])
	if err != nil || col < 1 {
		return Fact{}, false
	}
	msg := m[4]
	f := Fact{File: file, Line: ln, Col: col}
	switch {
	case strings.HasPrefix(msg, "can inline "):
		rest := strings.TrimPrefix(msg, "can inline ")
		name := rest
		if i := strings.Index(rest, " with cost "); i >= 0 {
			name = rest[:i]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			// Older toolchains: "can inline F as: ..." with no cost.
			name = rest[:i]
		}
		f.Kind, f.Name = FactCanInline, name
	case strings.HasPrefix(msg, "cannot inline "):
		rest := strings.TrimPrefix(msg, "cannot inline ")
		name, reason := rest, ""
		if i := strings.Index(rest, ": "); i >= 0 {
			name, reason = rest[:i], rest[i+2:]
		}
		f.Kind, f.Name, f.Detail = FactCannotInline, name, reason
	case strings.HasPrefix(msg, "inlining call to "):
		f.Kind, f.Name = FactInlineCall, strings.TrimPrefix(msg, "inlining call to ")
	case strings.HasPrefix(msg, "moved to heap: "):
		f.Kind, f.Name = FactEscape, strings.TrimPrefix(msg, "moved to heap: ")
	case strings.HasSuffix(msg, " escapes to heap") || strings.HasSuffix(msg, " escapes to heap:"):
		subj := strings.TrimSuffix(strings.TrimSuffix(msg, ":"), " escapes to heap")
		f.Kind, f.Name = FactEscape, subj
	case msg == "Found IsInBounds" || msg == "Found IsSliceInBounds":
		f.Kind, f.Name = FactBoundsCheck, strings.TrimPrefix(msg, "Found ")
	default:
		return Fact{}, false
	}
	return f, true
}

// factBaseName strips package qualifiers and receiver parentheses from a
// compiler-spelled function name: "repro/internal/cpu.(*bmIter).next",
// "(*bmIter).next", "bits.TrailingZeros64" and "next" all yield "next".
func factBaseName(name string) string {
	if i := strings.LastIndexByte(name, ')'); i >= 0 && i+2 <= len(name) {
		name = strings.TrimPrefix(name[i+1:], ".")
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
