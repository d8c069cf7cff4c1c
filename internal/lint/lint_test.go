package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ------------------------------------------------------------ golden files --
//
// Each fixture directory under testdata/src holds known-bad and known-good
// sources for one analyzer. A `// want "substring"` comment (multiple quoted
// substrings allowed) on a line asserts that the analyzer reports a
// diagnostic there whose message contains the substring; every diagnostic
// must be claimed by a want and every want must be matched.

var wantRE = regexp.MustCompile(`"([^"]*)"`)

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, _, err := Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0]
}

// collectWants maps "file:line" to the unmatched want substrings there.
func collectWants(p *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

func checkGolden(t *testing.T, fixture string, run func(*Package) []Diagnostic) {
	t.Helper()
	p := loadFixture(t, fixture)
	matchWants(t, p, run(p))
}

// matchWants checks diags against the // want comments in p's files.
func matchWants(t *testing.T, p *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(p)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, subs := range wants {
		for _, w := range subs {
			t.Errorf("missing diagnostic at %s: want message containing %q", key, w)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "determinism", Determinism)
}

// TestStoreDeterminismGolden covers the store-shaped hazards the durable
// cache introduced: timing disk reads (must be annotated as stats-only) and
// publishing directory/index listings in map order.
func TestStoreDeterminismGolden(t *testing.T) {
	checkGolden(t, "storedet", Determinism)
}

func TestStatsResetGolden(t *testing.T) {
	checkGolden(t, "statsreset", StatsReset)
}

// --------------------------------------------------------------- live tree --

// TestLiveTreeClean is the shipped-tree gate: the module this test runs in
// must produce zero findings under every analyzer. It is the same check
// `make lint` performs, so a regression — including deleting a
// //bfetch:hotpath annotation from a non-inlined allocating helper — fails
// `go test ./...` too. The compiler facts come through Go's build cache, so
// warm runs compile nothing; a toolchain whose diagnostic format is
// unrecognized fails the test.
func TestLiveTreeClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	res, err := RunAll(root)
	if err != nil {
		t.Fatalf("running gate: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("live tree finding: %s", d)
	}
	if res.Packages < 10 {
		t.Errorf("loaded only %d packages from %s; the package list looks broken", res.Packages, root)
	}
}

// ---------------------------------------------------------------- mutation --

// simLikeSrc mirrors the shape of sim.System's stats reset. The mutation test
// deletes one field assignment and requires the statsreset analyzer to
// re-detect exactly that bug class (a counter silently surviving the warmup
// boundary was what PR 2's hand audit caught).
const simLikeSrc = `package sim

type System struct {
	Cfg    int //bfetch:noreset configuration
	cycles uint64
	misses uint64
	issued uint64
	table  []int //bfetch:noreset learned state
}

func (s *System) ResetStats() {
	s.cycles = 0
	s.misses = 0
	s.issued = 0
}
`

func TestStatsResetMutation(t *testing.T) {
	p := loadSource(t, "sim.go", simLikeSrc)
	if diags := StatsReset(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(simLikeSrc, "\ts.misses = 0\n", "", 1)
	if mutated == simLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p = loadSource(t, "sim.go", mutated)
	diags := StatsReset(p)
	if len(diags) != 1 {
		t.Fatalf("mutated source: got %d findings, want exactly 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "System.misses") {
		t.Errorf("mutated source: finding %q does not name System.misses", diags[0].Message)
	}
}

// tsLikeSrc is a fixture modelled on an interval sampler's window restart,
// plus a CPI-stack array reset. The mutation test deletes one cursor assignment and requires the
// statsreset analyzer (which audits Restart alongside Reset/ResetStats) to
// re-detect it: a sampler that keeps its old nextAt across ResetStats
// replays warmup-window boundaries into the measurement window, and a CPI
// array that survives the reset breaks the exact-partition invariant
// (buckets would exceed the window's cycles).
const tsLikeSrc = `package obs

type timeSeries struct {
	reg      *int     //bfetch:noreset wiring
	maxRows  int      //bfetch:noreset configuration
	buf      []uint64 //bfetch:noreset ring storage, emptied logically by n=0
	n        int
	cpi      [4]uint64
	interval uint64
	base     uint64
	nextAt   uint64
}

func (s *timeSeries) Restart(now uint64) {
	s.n = 0
	s.cpi = [4]uint64{}
	s.interval = 1
	s.base = now
	s.nextAt = now + s.interval
}
`

func TestTimeSeriesRestartMutation(t *testing.T) {
	p := loadSource(t, "obs.go", tsLikeSrc)
	if diags := StatsReset(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	for _, mut := range []struct {
		drop, field string
	}{
		{"\ts.nextAt = now + s.interval\n", "timeSeries.nextAt"},
		{"\ts.cpi = [4]uint64{}\n", "timeSeries.cpi"},
	} {
		mutated := strings.Replace(tsLikeSrc, mut.drop, "", 1)
		if mutated == tsLikeSrc {
			t.Fatalf("mutation %q did not apply; fixture drifted", mut.drop)
		}
		p = loadSource(t, "obs.go", mutated)
		diags := StatsReset(p)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, mut.field) {
			t.Fatalf("mutated source: got %v, want exactly one finding naming %s", diags, mut.field)
		}
	}
}

// TestNoresetMutationAlsoGuardsMarkers checks the symmetric direction:
// removing a //bfetch:noreset annotation (without adding the reset) must
// surface the field.
func TestNoresetMutationAlsoGuardsMarkers(t *testing.T) {
	mutated := strings.Replace(simLikeSrc, " //bfetch:noreset learned state", "", 1)
	if mutated == simLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p := loadSource(t, "sim.go", mutated)
	diags := StatsReset(p)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "System.table") {
		t.Fatalf("got %v, want exactly one finding naming System.table", diags)
	}
}

// -------------------------------------------------------------- syncorder --

func TestSyncOrderGolden(t *testing.T) {
	checkGolden(t, "syncorder", SyncOrder)
}

// syncLikeSrc mirrors the runner's singleflight completion: close() under
// the lock is the sanctioned idiom. The mutation swaps it for a channel
// send, the convoy-shaped bug the analyzer exists to catch.
const syncLikeSrc = `package runner

import "sync"

type flight struct {
	mu   sync.Mutex
	done chan struct{}
	val  int
}

func (f *flight) complete(v int) {
	f.mu.Lock()
	f.val = v
	close(f.done)
	f.mu.Unlock()
}
`

func TestSyncOrderSendMutation(t *testing.T) {
	p := loadSource(t, "runner.go", syncLikeSrc)
	if diags := SyncOrder(p); len(diags) != 0 {
		t.Fatalf("clean source produced findings: %v", diags)
	}

	mutated := strings.Replace(syncLikeSrc, "close(f.done)", "f.done <- struct{}{}", 1)
	if mutated == syncLikeSrc {
		t.Fatal("mutation did not apply; fixture drifted")
	}
	p = loadSource(t, "runner.go", mutated)
	diags := SyncOrder(p)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel send while holding f.mu") {
		t.Fatalf("mutated source: got %v, want exactly one send-under-lock finding", diags)
	}
}

// TestRunAllTypeError runs the gate over a two-package module, then renames
// the function one package calls in the other. The caller's files did not
// change, but it no longer type-checks: the gate must fail, not pass over a
// smaller set of packages or stale per-package results.
func TestRunAllTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport \"fixture/b\"\n\nfunc Twice(n int) int { return 2 * b.Next(n) }\n",
		"b/b.go": "package b\n\nfunc Next(n int) int { return n + 1 }\n",
	})
	if res, err := RunAll(dir); err != nil || len(res.Diags) != 0 {
		t.Fatalf("clean module: %v, findings %v", err, res.Diags)
	}
	renamed := "package b\n\nfunc Succ(n int) int { return n + 1 }\n"
	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"), []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunAll(dir)
	if err == nil || !strings.Contains(err.Error(), "undefined: b.Next") {
		t.Fatalf("RunAll = %v, want the type error naming b.Next", err)
	}
}

// TestLoadHonoursBuildConstraints pins that the loader type-checks what the
// host build compiles: two platform variants of one function, on opposite
// build constraints, must not read as a duplicate declaration.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"on.go":  "//go:build bfetch_variant\n\npackage p\n\nfunc F() int { return 1 }\n",
		"off.go": "//go:build !bfetch_variant\n\npackage p\n\nfunc F() int { return 0 }\n",
	})
	pkgs, _, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("loaded %d package(s); want one package of one file", len(pkgs))
	}
	if got := filepath.Base(pkgs[0].Fset.Position(pkgs[0].Files[0].Pos()).Filename); got != "off.go" {
		t.Errorf("loaded %s, want off.go", got)
	}
}

// ------------------------------------------------------------------ nonet --

// TestNoNetGate runs the gate over a module whose internal/cache imports
// net/http, and whose internal/sim imports internal/cache and a module
// package outside internal/ that imports net. Each finding lands on the
// import that brings net in: cache's net/http and sim's fixture/wire, not
// sim's import of internal/cache, which carries its own finding. A command
// may import net/http.
func TestNoNetGate(t *testing.T) {
	res, err := RunAll(writeModule(t, map[string]string{
		"internal/cache/cache.go": "package cache\n\nimport _ \"net/http\"\n\nfunc Size() int { return 64 }\n",
		"internal/sim/sim.go":     "package sim\n\nimport (\n\t\"fixture/internal/cache\"\n\t\"fixture/wire\"\n)\n\nfunc Lines(n int) int { return n / cache.Size() * wire.Width() }\n",
		"wire/wire.go":            "package wire\n\nimport \"net\"\n\nfunc Width() int { return net.IPv4len }\n",
		"cmd/tool/main.go":        "package main\n\nimport \"net/http\"\n\nfunc main() { _ = http.StatusOK }\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range res.Diags {
		got = append(got, fmt.Sprintf("%s:%d [%s] %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		`cache.go:3 [nonet] import "net/http" links net: no package under internal/ may depend on net`,
		`sim.go:5 [nonet] import "fixture/wire" links net: no package under internal/ may depend on net`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
