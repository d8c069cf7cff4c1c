package core

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/prefetch"
)

// trainPair drives a predictor/estimator pair through a fixed branch stream:
// the given branches, always taken, interleaved with a pseudo-random
// direction on a side branch so the tables hold more than one pattern.
func trainPair(bp *branch.Predictor, conf *branch.Confidence, pcs []uint64) branch.GHR {
	var ghr branch.GHR
	x := uint64(1)
	for i := 0; i < 64; i++ {
		for _, pc := range pcs {
			p := bp.Lookup(pc, ghr)
			bp.Update(pc, ghr, true, p)
			conf.Update(pc, ghr, p.Taken)
			ghr = ghr.Shift(true)
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		taken := x&1 == 1
		p := bp.Lookup(0x4000, ghr)
		bp.Update(0x4000, ghr, taken, p)
		conf.Update(0x4000, ghr, p.Taken == taken)
		ghr = ghr.Shift(taken)
	}
	return ghr
}

// TestSharedPortLeavesPredictorUntouched pins the borrowed-port design
// (§IV-C): in its default mode B-Fetch only reads the pipeline's predictor
// and confidence estimator. An engine built on one of two identically
// trained pairs walks a three-block chain through decode, commit, access
// and tick calls; afterwards both pairs must still be equal.
func TestSharedPortLeavesPredictorUntouched(t *testing.T) {
	chain := []struct {
		br, blk uint64
		reg     isa.Reg
	}{
		{0x1000, 0x1100, isa.R(5)},
		{0x1180, 0x1200, isa.R(6)},
		{0x1280, 0x1300, isa.R(7)},
	}
	pcs := make([]uint64, len(chain))
	for i, h := range chain {
		pcs[i] = h.br
	}
	bp, conf := branch.New(branch.DefaultConfig()), branch.NewConfidence(branch.DefaultConfidenceConfig())
	refBP, refConf := branch.New(branch.DefaultConfig()), branch.NewConfidence(branch.DefaultConfidenceConfig())
	ghr := trainPair(bp, conf, pcs)
	trainPair(refBP, refConf, pcs)
	if !reflect.DeepEqual(bp, refBP) || !reflect.DeepEqual(conf, refConf) {
		t.Fatal("identically trained pairs differ before the engine runs")
	}

	b := New(DefaultConfig(), bp, conf)
	var regs [isa.NumRegs]int64
	regs[5], regs[6], regs[7] = 0x100000, 0x200000, 0x300000
	for pass := 0; pass < 8; pass++ {
		for _, h := range chain {
			commitBranch(b, h.br, true, h.blk, h.blk, &regs)
			b.OnAccess(prefetch.AccessInfo{PC: h.blk + 8, Addr: uint64(regs[h.reg] + 0x20)})
			commitLoad(b, h.blk+8, h.reg, uint64(regs[h.reg]+0x20), &regs)
		}
	}
	for _, r := range []isa.Reg{5, 6, 7} {
		b.OnExec(r, regs[r], 1000+uint64(r), 0)
	}
	b.OnDecode(prefetch.DecodeInfo{
		PC: chain[0].br, Op: isa.BNEZ, PredTaken: true, PredNext: chain[0].blk,
		GHR: uint64(ghr),
	})
	var reqs []prefetch.Request
	for cyc := uint64(3); cyc < 30; cyc++ {
		reqs = b.AppendTick(reqs[:0], cyc)
	}
	if b.Stats.LookaheadSteps < 3 {
		t.Fatalf("walk covered %d steps, want ≥3: the predictor was barely consulted", b.Stats.LookaheadSteps)
	}
	if !reflect.DeepEqual(bp, refBP) {
		t.Error("shared-port B-Fetch wrote the pipeline's branch predictor")
	}
	if !reflect.DeepEqual(conf, refConf) {
		t.Error("shared-port B-Fetch wrote the pipeline's confidence estimator")
	}
}

// TestPrivateEstimatorUsesConfiguredSettings pins that the private copy
// B-Fetch builds with PrivatePredictor is sized like the pipeline's
// estimator, not like the default one.
func TestPrivateEstimatorUsesConfiguredSettings(t *testing.T) {
	cc := branch.DefaultConfidenceConfig()
	cc.Entries = 1024
	conf := branch.NewConfidence(cc)
	cfg := DefaultConfig()
	cfg.PrivatePredictor = true
	b := New(cfg, branch.New(branch.DefaultConfig()), conf)
	if b.conf == conf {
		t.Fatal("private mode shares the pipeline's estimator")
	}
	if got, want := b.conf.StorageBits(), conf.StorageBits(); got != want {
		t.Errorf("private estimator holds %d bits, the configured one %d", got, want)
	}
}
