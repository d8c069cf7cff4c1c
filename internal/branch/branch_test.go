package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGHRShift(t *testing.T) {
	var g GHR
	g = g.Shift(true).Shift(false).Shift(true)
	if g != 0b101 {
		t.Errorf("ghr = %b", g)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.GlobalEntries = 1000 // not a power of two
	defer func() {
		if recover() == nil {
			t.Error("invalid config accepted")
		}
	}()
	New(bad)
}

func TestDefaultStorageNearPaper(t *testing.T) {
	kb := float64(DefaultConfig().StorageBits()) / 8 / 1024
	// Table II: 6.55 KB tournament predictor. Accept the same ballpark.
	if kb < 5 || kb > 8 {
		t.Errorf("predictor storage = %.2f KB, want ≈6.5", kb)
	}
}

func TestScaled(t *testing.T) {
	c := DefaultConfig()
	up := c.Scaled(2)
	if up.GlobalEntries != 2*c.GlobalEntries || up.ChooserEntries != 2*c.ChooserEntries {
		t.Errorf("2x scale: %+v", up)
	}
	down := c.Scaled(0.5)
	if down.GlobalEntries != c.GlobalEntries/2 {
		t.Errorf("0.5x scale: %+v", down)
	}
	if down.BTBEntries != c.BTBEntries {
		t.Error("BTB should not scale")
	}
}

// trainLoop feeds the predictor a branch that is taken n-1 of every n times
// (a loop back-edge) and returns the misprediction rate over the last half
// of the run.
func trainLoop(p *Predictor, pc uint64, n, iters int) float64 {
	var ghr GHR
	miss, total := 0, 0
	for i := 0; i < iters; i++ {
		taken := i%n != n-1
		pred := p.Lookup(pc, ghr)
		if i > iters/2 {
			total++
			if pred.Taken != taken {
				miss++
			}
		}
		p.Update(pc, ghr, taken, pred)
		ghr = ghr.Shift(taken)
	}
	return float64(miss) / float64(total)
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	var ghr GHR
	for i := 0; i < 64; i++ {
		pred := p.Lookup(0x1000, ghr)
		p.Update(0x1000, ghr, true, pred)
		ghr = ghr.Shift(true)
	}
	if !p.Lookup(0x1000, ghr).Taken {
		t.Error("always-taken branch predicted not-taken after training")
	}
}

func TestLearnsShortLoop(t *testing.T) {
	p := New(DefaultConfig())
	// A 4-iteration loop is within the 10-bit local history, so the exit
	// should become predictable: expect a low steady-state miss rate.
	rate := trainLoop(p, 0x2000, 4, 4000)
	if rate > 0.05 {
		t.Errorf("4-iteration loop steady-state miss rate = %.3f", rate)
	}
}

func TestLearnsAlternating(t *testing.T) {
	p := New(DefaultConfig())
	rate := trainLoop(p, 0x3000, 2, 2000) // T,N,T,N...
	if rate > 0.05 {
		t.Errorf("alternating branch miss rate = %.3f", rate)
	}
}

func TestLookupIsPure(t *testing.T) {
	p := New(DefaultConfig())
	// Train a bit with random outcomes.
	rng := rand.New(rand.NewSource(1))
	var ghr GHR
	for i := 0; i < 500; i++ {
		pc := uint64(0x1000 + 4*(rng.Intn(32)))
		taken := rng.Intn(2) == 0
		pred := p.Lookup(pc, ghr)
		p.Update(pc, ghr, taken, pred)
		ghr = ghr.Shift(taken)
	}
	// Many lookups with arbitrary histories must not change any subsequent
	// prediction.
	before := make([]Pred, 64)
	for i := range before {
		before[i] = p.Lookup(uint64(0x1000+4*i), GHR(i*7))
	}
	for i := 0; i < 1000; i++ {
		p.Lookup(uint64(0x1000+4*(i%64)), GHR(i*13))
	}
	for i := range before {
		if got := p.Lookup(uint64(0x1000+4*i), GHR(i*7)); got != before[i] {
			t.Fatalf("lookup %d changed after speculative lookups: %+v vs %+v", i, got, before[i])
		}
	}
}

func TestBTB(t *testing.T) {
	p := New(DefaultConfig())
	if _, ok := p.PredictIndirect(0x4000); ok {
		t.Error("cold BTB hit")
	}
	p.UpdateIndirect(0x4000, 0x1234)
	if tgt, ok := p.PredictIndirect(0x4000); !ok || tgt != 0x1234 {
		t.Errorf("btb = %#x,%v", tgt, ok)
	}
	// A conflicting PC with the same index but different tag must miss.
	conflict := 0x4000 + uint64(DefaultConfig().BTBEntries)*4*512
	p.UpdateIndirect(conflict, 0x9999)
	if tgt, ok := p.PredictIndirect(0x4000); ok && tgt == 0x1234 {
		t.Log("no conflict at chosen stride; acceptable")
	}
	if tgt, ok := p.PredictIndirect(conflict); !ok || tgt != 0x9999 {
		t.Errorf("conflict btb = %#x,%v", tgt, ok)
	}
}

func TestPredStrength(t *testing.T) {
	weak := Pred{Counter: 4, CounterMax: 7}
	strong := Pred{Counter: 7, CounterMax: 7}
	zero := Pred{Counter: 0, CounterMax: 3}
	if weak.Strength() >= strong.Strength() {
		t.Errorf("weak %.2f !< strong %.2f", weak.Strength(), strong.Strength())
	}
	if zero.Strength() != 1 {
		t.Errorf("fully not-taken strength = %f, want 1", zero.Strength())
	}
}

func TestConfidenceTrainsUpAndResets(t *testing.T) {
	c := NewConfidence(DefaultConfidenceConfig())
	pred := Pred{Counter: 7, CounterMax: 7}
	pc, ghr := uint64(0x1000), GHR(0)
	low := c.Estimate(pc, ghr, pred)
	for i := 0; i < 32; i++ {
		c.Update(pc, ghr, true)
	}
	high := c.Estimate(pc, ghr, pred)
	if high <= low {
		t.Errorf("confidence did not rise: %.3f -> %.3f", low, high)
	}
	c.Update(pc, ghr, false)
	after := c.Estimate(pc, ghr, pred)
	if after >= high {
		t.Errorf("confidence did not drop after mispredict: %.3f -> %.3f", high, after)
	}
	cfg := DefaultConfidenceConfig()
	if high > cfg.MaxProb || low < cfg.MinProb {
		t.Errorf("estimates outside [%f,%f]: %f %f", cfg.MinProb, cfg.MaxProb, low, high)
	}
}

func TestConfidenceStorage(t *testing.T) {
	c := NewConfidence(DefaultConfidenceConfig())
	kb := float64(c.StorageBits()) / 8 / 1024
	if kb != 2.0 {
		t.Errorf("confidence storage = %.2f KB, want 2 (Table I)", kb)
	}
}

func TestPathConfidence(t *testing.T) {
	pc := NewPathConfidence(0.75)
	if pc.Value() != 1 || pc.Depth() != 0 {
		t.Error("fresh accumulator not at unity")
	}
	if !pc.Extend(0.97) {
		t.Error("one confident branch should stay above threshold")
	}
	// 0.97^n falls below 0.75 at n=10.
	n := 1
	for pc.Extend(0.97) {
		n++
	}
	n++
	if n != 10 {
		t.Errorf("0.97-per-branch path survived %d branches, want 10", n)
	}
	pc.Reset()
	if pc.Value() != 1 || pc.Depth() != 0 {
		t.Error("reset failed")
	}
}

// Property: Update never lets any counter escape its width, and Lookup never
// panics across arbitrary PCs/histories.
func TestQuickCounterBounds(t *testing.T) {
	p := New(DefaultConfig())
	f := func(pcRaw uint32, ghrRaw uint64, taken bool) bool {
		pc := uint64(pcRaw)
		ghr := GHR(ghrRaw)
		pred := p.Lookup(pc, ghr)
		p.Update(pc, ghr, taken, pred)
		for _, v := range p.localPHT {
			if v > 7 {
				return false
			}
		}
		for _, v := range p.global {
			if v > 3 {
				return false
			}
		}
		for _, v := range p.chooser {
			if v > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: confidence estimates always lie within the configured band.
func TestQuickConfidenceBand(t *testing.T) {
	cfg := DefaultConfidenceConfig()
	c := NewConfidence(cfg)
	f := func(pcRaw uint32, ghrRaw uint64, counter uint8, correct bool) bool {
		pc, ghr := uint64(pcRaw), GHR(ghrRaw)
		pred := Pred{Counter: counter % 8, CounterMax: 7}
		e := c.Estimate(pc, ghr, pred)
		c.Update(pc, ghr, correct)
		return e >= cfg.MinProb-1e-9 && e <= cfg.MaxProb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
