package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateDir compiles the module at dir with the diagnostic flags for real and
// runs the escape analyzer over it. A toolchain whose output the parser no
// longer recognizes fails the test, as it fails the CLI.
func gateDir(t *testing.T, dir string) ([]*Package, []Diagnostic) {
	t.Helper()
	pkgs, facts, err := Load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkgs, Escape(pkgs, facts)
}

// writeModule writes files (slash-separated paths relative to the module
// root) plus a go.mod for module "fixture" into a fresh directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// gateSource is gateDir over a throwaway module holding one file.
func gateSource(t *testing.T, name, src string) []Diagnostic {
	t.Helper()
	_, diags := gateDir(t, writeModule(t, map[string]string{name: src}))
	return diags
}

// loadSource loads a throwaway module holding one file as its one package.
func loadSource(t *testing.T, name, src string) *Package {
	t.Helper()
	pkgs, _, err := Load(writeModule(t, map[string]string{name: src}))
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("%s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// mutate applies one textual mutation, failing if the fixture drifted.
func mutate(t *testing.T, src, old, new string) string {
	t.Helper()
	out := strings.Replace(src, old, new, 1)
	if out == src {
		t.Fatalf("mutation %q did not apply; fixture drifted", old)
	}
	return out
}

// TestEscapeGolden compiles the escape fixture (its own mini-module under
// testdata/src/escape) and checks the findings against its // want
// comments, so they assert against live toolchain output rather than
// recordings.
func TestEscapeGolden(t *testing.T) {
	pkgs, diags := gateDir(t, filepath.Join("testdata", "src", "escape"))
	if len(pkgs) != 1 {
		t.Fatalf("escape fixture: got %d packages, want 1", len(pkgs))
	}
	matchWants(t, pkgs[0], diags)
}

// escLikeSrc mirrors the one hatched heap escape the live tree carries (the
// copy-on-write fault in mem.pageFor): an annotated function whose escaping
// local is excused by //bfetch:alloc-ok. Deleting the hatch must surface the
// compiler-witnessed finding.
const escLikeSrc = `package esc

//bfetch:hotpath
func leak(n int) *int {
	v := n //bfetch:alloc-ok boot-time registration, called once
	return &v
}
`

func TestEscapeHatchMutation(t *testing.T) {
	if diags := gateSource(t, "esc.go", escLikeSrc); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}
	mutated := mutate(t, escLikeSrc, " //bfetch:alloc-ok boot-time registration, called once", "")
	diags := gateSource(t, "esc.go", mutated)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "v escapes to heap inside //bfetch:hotpath leak") {
		t.Fatalf("mutated source: got %v, want exactly one escape finding for v", diags)
	}
}

// obsLikeSrc mirrors the observability registry's hot-path instruments: a
// fixed-slot counter increment and a ring-buffer trace append, both under
// //bfetch:hotpath. The mutation plants a heap allocation inside the
// increment, witnessing that the obs instruments are inside the gate rather
// than merely absent from its findings.
const obsLikeSrc = `package obs

type Counter struct{ v *uint64 }

//bfetch:hotpath
func (c Counter) Inc() { *c.v++ }

type Trace struct {
	buf  []uint64
	w, n int
}

//bfetch:hotpath
func (t *Trace) Record(v uint64) {
	if t == nil {
		return
	}
	t.buf[t.w] = v
	t.w++
	if t.w == len(t.buf) {
		t.w = 0
	}
}
`

func TestObsHotpathMutation(t *testing.T) {
	if diags := gateSource(t, "obs.go", obsLikeSrc); len(diags) != 0 {
		t.Fatalf("clean obs-like source produced findings: %v", diags)
	}
	mutated := mutate(t, obsLikeSrc,
		"func (c Counter) Inc() { *c.v++ }",
		"func (c Counter) Inc() { *c.v++; _ = make([]uint64, *c.v) }")
	diags := gateSource(t, "obs.go", mutated)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "escapes to heap inside //bfetch:hotpath Inc") {
		t.Fatalf("mutated source: got %v, want exactly one escape finding in Inc", diags)
	}
}

// emuLikeSrc mirrors the two cycle-kernel shapes this module's hot paths
// lean on: the threaded-code emulator's superblock dispatch loop (pre-decoded
// op records executed inline in a switch) and the out-of-order core's
// TrailingZeros64-style bitmap scheduler walk. The clean pass witnesses both
// idioms compile allocation-free; the mutation plants an op body wrapped in
// a closure kept past the step, which the compiler must heap-allocate.
const emuLikeSrc = `package emu

type cop struct {
	kind   uint8
	rd, rs uint8
	imm    int64
}

type kernel struct {
	ops  []cop
	term []int32
}

var hook func()

//bfetch:hotpath
func (k *kernel) run(regs *[32]int64, pc int) int {
	ops := k.ops
	t := int(k.term[pc])
	for i := pc; i < t; i++ {
		o := &ops[i]
		switch o.kind {
		case 0:
			regs[o.rd&31] = regs[o.rs&31] + o.imm
		default:
			regs[o.rd&31] = o.imm
		}
	}
	return t
}

//bfetch:hotpath
func pick(bm []uint64, width int) int {
	n := 0
	for _, w := range bm {
		for ; w != 0; w &= w - 1 {
			if n++; n == width {
				return n
			}
		}
	}
	return n
}
`

func TestCompiledDispatchHotpathMutation(t *testing.T) {
	if diags := gateSource(t, "emu.go", emuLikeSrc); len(diags) != 0 {
		t.Fatalf("clean emu-like source produced findings: %v", diags)
	}
	mutated := mutate(t, emuLikeSrc,
		"regs[o.rd&31] = regs[o.rs&31] + o.imm\n",
		"hook = func() { regs[o.rd&31] = regs[o.rs&31] + o.imm }\n")
	diags := gateSource(t, "emu.go", mutated)
	if len(diags) == 0 {
		t.Fatal("mutated source: no findings, want the retained closure's escape")
	}
	line := strings.Count(mutated[:strings.Index(mutated, "hook = func")], "\n") + 1
	for _, d := range diags {
		if !strings.Contains(d.Message, "inside //bfetch:hotpath run") || d.Pos.Line != line {
			t.Errorf("mutated source: unexpected finding %s", d)
		}
	}
}

// hotcallLikeSrc mirrors the shape of mem.pageFor in the live tree: an
// annotated kernel calling an annotated helper the compiler does not
// inline, whose one allocation is a hatched grow-once path. Deleting the
// helper's annotation must fail: a non-inlined call out of a hot function
// has to land on an annotated callee.
const hotcallLikeSrc = `package core

type eng struct{ buf []int }

//bfetch:hotpath
func (e *eng) cycle(n int) {
	e.refill(n)
}

//bfetch:hotpath
//go:noinline
func (e *eng) refill(n int) {
	if cap(e.buf) < n {
		e.buf = make([]int, n) //bfetch:alloc-ok grow-once scratch
	}
	e.buf = e.buf[:n]
}
`

func TestHotcallAnnotationMutation(t *testing.T) {
	if diags := gateSource(t, "core.go", hotcallLikeSrc); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}
	mutated := mutate(t, hotcallLikeSrc, "//bfetch:hotpath\n//go:noinline\n", "//go:noinline\n")
	diags := gateSource(t, "core.go", mutated)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "call to refill in //bfetch:hotpath cycle is not inlined") {
		t.Fatalf("mutated source: got %v, want exactly one not-inlined finding naming refill", diags)
	}
}

// TestEscapeTypedMethodCall builds a two-package module whose hot function
// calls an allocating method of package b through a local variable, in a
// file that does not import b. Only the variable's type says where the
// call goes; the escape gate must follow it into b.
func TestEscapeTypedMethodCall(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/eng.go": `package a

import "fixture/b"

type Eng struct{ buf *b.Buf }
`,
		"a/hot.go": `package a

//bfetch:hotpath
func (e *Eng) Tick(n int) int {
	buf := e.buf
	return buf.Grow(n)
}
`,
		"b/b.go": `package b

type Buf struct{ s []int }

//go:noinline
func (x *Buf) Grow(n int) int {
	x.s = make([]int, n)
	return len(x.s)
}
`,
	})
	_, diags := gateDir(t, dir)
	found := false
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "b.go" &&
			strings.Contains(d.Message, "escapes to heap inside Grow (reached from //bfetch:hotpath a.Eng.Tick)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("got %v, want the escape in b.Buf.Grow reached from a.Eng.Tick", diags)
	}
}

// TestEscapeSeesDependencyChange lints a two-package module clean, then
// grows only the imported callee past the inlining budget and lints again in
// the same process and build cache. Package a's sources are unchanged, but
// its facts are not: the call it inlined is now a call it cannot inline,
// and the second run must say so.
func TestEscapeSeesDependencyChange(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": `package a

import "fixture/b"

//bfetch:hotpath
func Tick(x int) int { return b.Add(x, 1) }
`,
		"b/b.go": smallAdd,
	})
	if _, diags := gateDir(t, dir); len(diags) != 0 {
		t.Fatalf("clean module produced findings: %v", diags)
	}
	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"), []byte(bigAdd), 0o644); err != nil {
		t.Fatal(err)
	}
	_, diags := gateDir(t, dir)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "call to Add in //bfetch:hotpath Tick is not inlined") {
		t.Fatalf("after growing b.Add: got %v, want exactly one not-inlined finding naming Add", diags)
	}
}

const smallAdd = `package b

func Add(x, y int) int { return x + y }
`

// bigAdd is Add grown well past the compiler's inlining budget of 80.
var bigAdd = "package b\n\nfunc Add(x, y int) int {\n" +
	strings.Repeat("\tx = x*y + x>>3 ^ y<<5 - x/7\n", 40) + "\treturn x\n}\n"
