package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := Geomean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("geomean(1,1,1) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero input")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestWeightedSpeedup(t *testing.T) {
	ws := WeightedSpeedup([]float64{0.5, 1.0}, []float64{1.0, 2.0})
	if ws != 1.0 {
		t.Errorf("ws = %v", ws)
	}
	// Ideal (no contention) n-app mix sums to n.
	ws = WeightedSpeedup([]float64{1, 2, 3}, []float64{1, 2, 3})
	if ws != 3 {
		t.Errorf("ideal ws = %v", ws)
	}
}

func TestWeightedSpeedupValidation(t *testing.T) {
	for _, f := range []func(){
		func() { WeightedSpeedup([]float64{1}, []float64{1, 2}) },
		func() { WeightedSpeedup([]float64{1}, []float64{0}) },
	} {
		func() {
			defer func() { recover() }()
			f()
			t.Error("invalid input accepted")
		}()
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v", m)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", 42)
	s := tab.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "1.500") {
		t.Error("float not formatted to 3 decimals")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), s)
	}
	// Columns align: every line after the title shares the separator column.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "name") {
		t.Errorf("header = %q", hdr)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("x,y", `quote"d`)
	csv := tab.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"d\"\n"
	if csv != want {
		t.Errorf("csv = %q, want %q", csv, want)
	}
}

// Property: geomean lies between min and max; scaling inputs scales the
// geomean.
func TestQuickGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 1 + float64(r)/100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		if g < lo-1e-9 || g > hi+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 2
		}
		return math.Abs(Geomean(scaled)-2*g) < 1e-9*g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
