package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ------------------------------------------------- toolchain format pinning --

// loadFactFixture parses one recorded diagnostic stream from testdata/facts.
func loadFactFixture(t *testing.T, name string) *FactTable {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "facts", name))
	if err != nil {
		t.Fatalf("reading recorded fixture: %v", err)
	}
	return ParseFacts(".", raw)
}

// TestParseFactsToolchainFormats pins the parser against the two recorded
// diagnostic spellings (go1.22 module-relative paths, go1.24 "./"-prefixed
// root-package paths). Both must yield the identical logical fact set; a
// toolchain that drifts from both shapes yields nothing, which Load turns
// into ErrNoFacts — a failed gate, never a false pass.
func TestParseFactsToolchainFormats(t *testing.T) {
	for _, name := range []string{"go1.22.txt", "go1.24.txt"} {
		table := loadFactFixture(t, name)
		facts := table.ByFile["mem.go"]
		if len(table.ByFile) != 1 || len(facts) != 7 {
			t.Fatalf("%s: got %d files / %d facts, want 1 file with 7 facts: %+v",
				name, len(table.ByFile), len(facts), table.ByFile)
		}
		counts := map[FactKind]int{}
		for _, f := range facts {
			counts[f.Kind]++
		}
		want := map[FactKind]int{
			FactCanInline: 1, FactCannotInline: 1, FactInlineCall: 1,
			FactEscape: 2, FactBoundsCheck: 2,
		}
		for k, n := range want {
			if counts[k] != n {
				t.Errorf("%s: got %d %s facts, want %d", name, counts[k], k, n)
			}
		}
		// The doubled escape line ("escapes to heap" with and without the
		// trailing trace colon) must dedup to one fact.
		if got := table.FactsAt("mem.go", 44); len(got) != 1 || got[0].Name != "new(page)" {
			t.Errorf("%s: facts at mem.go:44 = %+v, want one new(page) escape", name, got)
		}
		// Inline verdicts index by receiver-stripped base name.
		if got := table.CannotInline("pageFor"); len(got) != 1 ||
			!strings.Contains(got[0].Detail, "cost 210") {
			t.Errorf("%s: CannotInline(pageFor) = %+v", name, got)
		}
		if got := table.CanInline("Read8"); len(got) != 1 {
			t.Errorf("%s: CanInline(Read8) = %+v", name, got)
		}
	}
}

// TestParseFactsUnknownFormat is the failure trigger: a stream in an
// unrecognized shape parses to zero facts, which Load converts to
// ErrNoFacts.
func TestParseFactsUnknownFormat(t *testing.T) {
	out := []byte("mem.go(10): escape: v\ncompile: mem.go line 10 v escapes\nTOTAL 3 diagnostics\n")
	table := ParseFacts(".", out)
	if len(table.ByFile) != 0 {
		t.Fatalf("unknown format parsed to facts: %+v", table.ByFile)
	}
}

// FuzzParseFacts feeds arbitrary diagnostic streams to the parser, seeded
// with the recorded toolchain outputs. Whatever the input, parsing must not
// panic, every fact must sit under its own file's key, and every position
// must be a real source line.
func FuzzParseFacts(f *testing.F) {
	for _, name := range []string{"go1.22.txt", "go1.24.txt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "facts", name))
		if err != nil {
			f.Fatalf("reading seed: %v", err)
		}
		f.Add(raw)
	}
	f.Add([]byte("0.go:0:0: can inline 0\n"))
	f.Fuzz(func(t *testing.T, out []byte) {
		table := ParseFacts(".", out)
		for file, facts := range table.ByFile {
			for _, fact := range facts {
				if fact.File != file {
					t.Errorf("fact %+v filed under %q", fact, file)
				}
				if fact.Line < 1 || fact.Col < 1 {
					t.Errorf("fact %+v has a position before line 1, column 1", fact)
				}
			}
		}
	})
}

// TestParseFactsRejectsBadPositions pins the position check the fuzz target
// asserts: a line or column of zero, or one that overflows int, is not a
// fact.
func TestParseFactsRejectsBadPositions(t *testing.T) {
	for _, line := range []string{
		"0.go:0:0: can inline f",
		"a.go:0:5: moved to heap: v",
		"a.go:3:0: moved to heap: v",
		"a.go:99999999999999999999:1: moved to heap: v",
		"a.go:1:99999999999999999999: moved to heap: v",
	} {
		if table := ParseFacts(".", []byte(line)); len(table.ByFile) != 0 {
			t.Errorf("%q parsed to facts: %+v", line, table.ByFile)
		}
	}
}

// TestFactIndexSortedByFile checks that a callee's cannot-inline facts are
// listed in file order, whatever the map order of ByFile, so the reason an
// escape finding quotes when no fact sits in the caller's file is the same
// on every run.
func TestFactIndexSortedByFile(t *testing.T) {
	for i := 0; i < 20; i++ {
		table := &FactTable{ByFile: map[string][]Fact{}}
		for _, file := range []string{"c.go", "a.go", "d.go", "b.go"} {
			table.ByFile[file] = []Fact{{File: file, Line: 1, Kind: FactCannotInline, Name: "f", Detail: file}}
		}
		table.index()
		var got []string
		for _, f := range table.CannotInline("f") {
			got = append(got, f.Detail)
		}
		if strings.Join(got, " ") != "a.go b.go c.go d.go" {
			t.Fatalf("index %d: cannot-inline facts in order %v, want file order", i, got)
		}
	}
}
