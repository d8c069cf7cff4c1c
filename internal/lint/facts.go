package lint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler-witness layer: it runs the real Go compiler in
// diagnostic mode over the module, parses the escape-analysis, inlining and
// bounds-check-elimination output into a position-indexed fact table, and
// caches that table per package keyed by a build ID (toolchain version +
// flags + file contents), so warm lint runs never invoke the compiler.
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
// positions) is ignored. If the toolchain stops emitting any recognizable
// facts for a module that plainly has functions, collection degrades to a
// skip-with-warning (ErrNoFacts) rather than a silent all-clear.

// factsGCFlags are the compiler flags the witness layer builds with: full
// escape/inline diagnostics plus the bounds-check-elimination debug stream.
const factsGCFlags = "-m=2 -d=ssa/check_bce/debug=1"

// factsParserVersion invalidates cached fact files when the parser itself
// changes shape. Bump on any change to parseFactLine or the Fact type.
const factsParserVersion = "2"

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
// understand. Callers must treat it as "escape analyzer skipped", never as
// "escape analyzer passed".
var ErrNoFacts = errors.New("lint: compiler produced no recognizable -m=2/BCE diagnostics; escape analyzer skipped (toolchain format change?)")

// CollectOptions configures fact collection.
type CollectOptions struct {
	// CacheDir overrides the fact-cache location (default:
	// os.UserCacheDir()/bfetch-lint). Tests point it at a temp dir.
	CacheDir string
}

// CollectFacts returns the compiler fact table for the module at root,
// consulting the per-package build-ID cache first and invoking the compiler
// only for packages whose sources changed. pkgs must be LoadModule(root).
func CollectFacts(root string, pkgs []*Package, opts CollectOptions) (*FactTable, error) {
	cacheDir := opts.CacheDir
	if cacheDir == "" {
		if base, err := os.UserCacheDir(); err == nil {
			cacheDir = filepath.Join(base, "bfetch-lint")
		} else {
			cacheDir = filepath.Join(os.TempDir(), "bfetch-lint")
		}
	}

	states := make([]*pkgState, 0, len(pkgs))
	for _, p := range pkgs {
		key, err := packageBuildID(p)
		if err != nil {
			return nil, err
		}
		rel := p.Rel
		if rel == "" {
			rel = "."
		}
		states = append(states, &pkgState{p: p, key: key, rel: rel, nfun: countFuncs(p)})
	}

	table := &FactTable{Root: root, ByFile: make(map[string][]Fact)}
	var missing []*pkgState
	for _, st := range states {
		facts, ok := readFactCache(cacheDir, st.key)
		if !ok {
			missing = append(missing, st)
			continue
		}
		for _, f := range facts {
			table.ByFile[f.File] = append(table.ByFile[f.File], f)
		}
	}

	if len(missing) > 0 {
		byDir, err := compileForFacts(root, missing, false)
		if err != nil {
			return nil, err
		}
		// A package that has function bodies but yielded zero facts was
		// served from Go's own build cache (which replays no diagnostics).
		// Retry those with -a to force recompilation.
		var stale []*pkgState
		for _, st := range missing {
			if st.nfun > 0 && len(byDir[st.rel]) == 0 {
				stale = append(stale, st)
			}
		}
		if len(stale) > 0 {
			forced, err := compileForFacts(root, stale, true)
			if err != nil {
				return nil, err
			}
			for dir, facts := range forced {
				byDir[dir] = facts
			}
		}
		totalFuncs, totalFacts := 0, 0
		for _, st := range missing {
			facts := byDir[st.rel]
			totalFuncs += st.nfun
			totalFacts += len(facts)
			for _, f := range facts {
				table.ByFile[f.File] = append(table.ByFile[f.File], f)
			}
			writeFactCache(cacheDir, st.key, facts)
		}
		if totalFuncs > 0 && totalFacts == 0 {
			return nil, ErrNoFacts
		}
	}

	for file := range table.ByFile {
		facts := table.ByFile[file]
		sort.Slice(facts, func(i, j int) bool {
			if facts[i].Line != facts[j].Line {
				return facts[i].Line < facts[j].Line
			}
			return facts[i].Col < facts[j].Col
		})
	}
	table.index()
	return table, nil
}

// ParseFacts parses a recorded diagnostic stream (as emitted by
// `go build -gcflags='-m=2 -d=ssa/check_bce/debug=1'`) into facts, without
// running the compiler. The toolchain-format pinning tests feed it recorded
// outputs from several Go versions.
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
	table.index()
	return table
}

func (t *FactTable) index() {
	t.cannotInline = make(map[string][]Fact)
	t.canInline = make(map[string][]Fact)
	for _, facts := range t.ByFile {
		for _, f := range facts {
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

// ---------------------------------------------------------------- compiler --

// pkgState pairs a parsed package with its cache key and compile spelling.
type pkgState struct {
	p    *Package
	key  string
	rel  string // "./"-relative dir as passed to go build ("." for the root)
	nfun int    // function decls with bodies — a lower bound on inline facts
}

// compileForFacts builds the given packages with the diagnostic flags and
// returns the parsed facts grouped by module-relative package dir. force
// adds -a, defeating Go's build cache (which suppresses diagnostics for
// up-to-date packages).
func compileForFacts(root string, states []*pkgState, force bool) (map[string][]Fact, error) {
	args := []string{"build", "-gcflags=" + factsGCFlags}
	if force {
		args = append(args, "-a")
	}
	// `go build` discards library objects, but writes main-package binaries
	// to the working directory — and refuses -o DIR when the set holds no
	// main package at all. Redirect binaries to a throwaway dir only when
	// one is actually being built.
	hasMain := false
	for _, st := range states {
		if len(st.p.Files) > 0 && st.p.Files[0].Name.Name == "main" {
			hasMain = true
			break
		}
	}
	if hasMain {
		tmp, err := os.MkdirTemp("", "bfetch-lint-bin")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		args = append(args, "-o", tmp)
	}
	for _, st := range states {
		args = append(args, "./"+st.rel)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		// The diagnostic stream rides on stderr even on failure; a build
		// error means the tree doesn't compile, which is a lint error too.
		return nil, fmt.Errorf("lint: go build for compiler facts failed: %v\n%s", err, out)
	}
	parsed := ParseFacts(root, out)
	// Group facts by the directory of the file they are positioned in; the
	// module root package groups under "." to match the cache-key spelling.
	byDir := make(map[string][]Fact)
	for file, facts := range parsed.ByFile {
		dir := filepath.ToSlash(filepath.Dir(file))
		byDir[dir] = append(byDir[dir], facts...)
	}
	return byDir, nil
}

// ---------------------------------------------------------------- build ID --

// packageBuildID derives the cache key for one package: the Go toolchain
// version, the diagnostic flags, the parser version, and the content of
// every non-test .go file in the directory. Any change to any input yields
// a new key, so a stale fact file can never satisfy a fresh tree.
func packageBuildID(p *Package) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "go=%s flags=%q parser=%s\n", runtime.Version(), factsGCFlags, factsParserVersion)
	names := make([]string, 0, len(p.Files))
	byName := make(map[string]string, len(p.Files))
	for _, f := range p.Files {
		pos := p.Fset.Position(f.Package)
		names = append(names, pos.Filename)
		byName[pos.Filename] = pos.Filename
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(byName[name])
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(h, "%s %s\n", filepath.Base(name), hex.EncodeToString(sum[:]))
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// countFuncs counts function declarations with bodies: each is guaranteed at
// least one can/cannot-inline diagnostic, so a package with countFuncs > 0
// and zero parsed facts was served from a silent build cache (or the
// toolchain format drifted).
func countFuncs(p *Package) int {
	n := 0
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				n++
			}
		}
	}
	return n
}

// ------------------------------------------------------------------- cache --

type factCacheFile struct {
	Version string `json:"version"`
	Facts   []Fact `json:"facts"`
}

func readFactCache(dir, key string) ([]Fact, bool) {
	data, err := os.ReadFile(filepath.Join(dir, key+".facts.json"))
	if err != nil {
		return nil, false
	}
	var cf factCacheFile
	if json.Unmarshal(data, &cf) != nil || cf.Version != factsParserVersion {
		return nil, false
	}
	return cf.Facts, true
}

func writeFactCache(dir, key string, facts []Fact) {
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	data, err := json.Marshal(factCacheFile{Version: factsParserVersion, Facts: facts})
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, key+".tmp")
	if os.WriteFile(tmp, data, 0o644) == nil {
		os.Rename(tmp, filepath.Join(dir, key+".facts.json"))
	}
}
