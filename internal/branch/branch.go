// Package branch implements the branch-prediction machinery the B-Fetch
// paper depends on: a tournament direction predictor (local + gshare +
// chooser) in the style of the ALPHA 21264/gem5 predictor, a branch target
// buffer for indirect jumps, the composite confidence estimator of Jiménez
// (SBAC-PAD 2009: JRS + up/down + self counters), and the PaCo-style path
// confidence accumulator of Malik et al. (HPCA 2008).
//
// All direction lookups are pure functions of (PC, global history), so the
// B-Fetch lookahead engine can thread its own speculative history through the
// shared tables without perturbing the main pipeline's state, exactly as the
// paper's borrowed-predictor-port design requires.
package branch

import "fmt"

// GHR is a global branch-history register. Bit 0 is the most recent outcome.
type GHR uint64

// Shift returns the history extended with one outcome.
func (g GHR) Shift(taken bool) GHR {
	g <<= 1
	if taken {
		g |= 1
	}
	return g
}

// Config sizes the predictor. All table entry counts must be powers of two.
// The default configuration totals ≈6.5 KB, matching the paper's Table II
// "6.55KB Tournament predictor".
type Config struct {
	LocalHistEntries int // entries in the per-PC history table
	LocalHistBits    int // bits of local history per entry
	LocalPHTEntries  int // 3-bit counters indexed by local history
	GlobalEntries    int // 2-bit gshare counters
	ChooserEntries   int // 2-bit chooser counters indexed by GHR
	BTBEntries       int // branch target buffer entries (indirect targets)
}

// DefaultConfig returns the Table II predictor configuration.
func DefaultConfig() Config {
	return Config{
		LocalHistEntries: 1024,
		LocalHistBits:    10,
		LocalPHTEntries:  1024,
		GlobalEntries:    8192,
		ChooserEntries:   4096,
		BTBEntries:       256,
	}
}

// Scaled returns the configuration with every table scaled by a power-of-two
// factor (0.5, 2, 4, ...), used by the Figure 13 sensitivity study.
func (c Config) Scaled(factor float64) Config {
	scale := func(n int) int {
		v := int(float64(n) * factor)
		if v < 16 {
			v = 16
		}
		// Round to the nearest power of two (factor is itself 2^k in the
		// experiments, so this is exact there).
		p := 16
		for p < v {
			p <<= 1
		}
		return p
	}
	c.LocalHistEntries = scale(c.LocalHistEntries)
	c.LocalPHTEntries = scale(c.LocalPHTEntries)
	c.GlobalEntries = scale(c.GlobalEntries)
	c.ChooserEntries = scale(c.ChooserEntries)
	return c
}

// Validate reports table sizes New cannot build: every table must be a
// positive power of two, and the local history 1..24 bits.
func (c Config) Validate() error {
	for _, n := range []int{c.LocalHistEntries, c.LocalPHTEntries, c.GlobalEntries, c.ChooserEntries, c.BTBEntries} {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("branch: table size %d is not a positive power of two", n)
		}
	}
	if c.LocalHistBits <= 0 || c.LocalHistBits > 24 {
		return fmt.Errorf("branch: local history bits %d out of range", c.LocalHistBits)
	}
	return nil
}

// StorageBits returns the predictor's state budget in bits.
func (c Config) StorageBits() int {
	bits := c.LocalHistEntries*c.LocalHistBits +
		c.LocalPHTEntries*3 +
		c.GlobalEntries*2 +
		c.ChooserEntries*2
	// BTB: tag (16 bits is plenty at these sizes) + 32-bit target + valid.
	bits += c.BTBEntries * (16 + 32 + 1)
	return bits
}

// Pred is the outcome of a direction lookup, carrying enough detail for a
// faithful update and for the self-confidence estimator.
type Pred struct {
	Taken      bool
	UsedGlobal bool  // which component the chooser selected
	Counter    uint8 // the selected component's counter value
	CounterMax uint8 // saturation value of that counter
}

// Strength returns how far the used counter sits from its decision boundary,
// normalized to [0,1]; the "self counter" confidence signal.
func (p Pred) Strength() float64 {
	mid := float64(p.CounterMax) / 2
	d := float64(p.Counter) - mid
	if d < 0 {
		d = -d
	}
	return d / mid
}

// Predictor is the tournament direction predictor plus BTB.
type Predictor struct {
	cfg Config

	localHist []uint32 // per-PC local history
	localPHT  []uint8  // 3-bit counters
	global    []uint8  // 2-bit gshare counters
	chooser   []uint8  // 2-bit chooser: high favours global

	btbTag    []uint16
	btbTarget []uint64
	btbValid  []bool
}

// New builds a predictor; it panics on an invalid configuration (sizes are
// compile-time choices in this codebase).
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:       cfg,
		localHist: make([]uint32, cfg.LocalHistEntries),
		localPHT:  make([]uint8, cfg.LocalPHTEntries),
		global:    make([]uint8, cfg.GlobalEntries),
		chooser:   make([]uint8, cfg.ChooserEntries),
		btbTag:    make([]uint16, cfg.BTBEntries),
		btbTarget: make([]uint64, cfg.BTBEntries),
		btbValid:  make([]bool, cfg.BTBEntries),
	}
	// Weakly-taken initial state converges faster on loop-heavy code.
	for i := range p.localPHT {
		p.localPHT[i] = 4
	}
	for i := range p.global {
		p.global[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// StorageBits reports the predictor's state budget.
func (p *Predictor) StorageBits() int { return p.cfg.StorageBits() }

func pcIndex(pc uint64) uint64 { return pc >> 2 }

func (p *Predictor) localIdx(pc uint64) int {
	return int(pcIndex(pc) & uint64(p.cfg.LocalHistEntries-1))
}

func (p *Predictor) localPHTIdx(hist uint32) int {
	return int(hist) & (p.cfg.LocalPHTEntries - 1)
}

func (p *Predictor) globalIdx(pc uint64, ghr GHR) int {
	return int((pcIndex(pc) ^ uint64(ghr)) & uint64(p.cfg.GlobalEntries-1))
}

func (p *Predictor) chooserIdx(ghr GHR) int {
	return int(uint64(ghr) & uint64(p.cfg.ChooserEntries-1))
}

// Lookup predicts the direction of the conditional branch at pc given a
// global history. It reads but never writes predictor state, so callers may
// thread speculative histories through it freely.
//
//bfetch:hotpath
func (p *Predictor) Lookup(pc uint64, ghr GHR) Pred {
	lh := p.localHist[p.localIdx(pc)]
	lc := p.localPHT[p.localPHTIdx(lh)]
	gc := p.global[p.globalIdx(pc, ghr)]
	ch := p.chooser[p.chooserIdx(ghr)]
	if ch >= 2 {
		return Pred{Taken: gc >= 2, UsedGlobal: true, Counter: gc, CounterMax: 3}
	}
	return Pred{Taken: lc >= 4, UsedGlobal: false, Counter: lc, CounterMax: 7}
}

// Update trains the predictor with a resolved branch. ghr must be the global
// history the prediction was made with; pred the value Lookup returned. The
// predictor keeps no statistics: the caller counts branches and misses.
//
//bfetch:hotpath
func (p *Predictor) Update(pc uint64, ghr GHR, taken bool, pred Pred) {
	li := p.localIdx(pc)
	lh := p.localHist[li]
	lpi := p.localPHTIdx(lh)
	gi := p.globalIdx(pc, ghr)
	ci := p.chooserIdx(ghr)

	localTaken := p.localPHT[lpi] >= 4
	globalTaken := p.global[gi] >= 2

	// Chooser trains toward whichever component was right, when they differ.
	if localTaken != globalTaken {
		if globalTaken == taken {
			p.chooser[ci] = satInc(p.chooser[ci], 3)
		} else {
			p.chooser[ci] = satDec(p.chooser[ci])
		}
	}
	// Direction counters.
	if taken {
		p.localPHT[lpi] = satInc(p.localPHT[lpi], 7)
		p.global[gi] = satInc(p.global[gi], 3)
	} else {
		p.localPHT[lpi] = satDec(p.localPHT[lpi])
		p.global[gi] = satDec(p.global[gi])
	}
	// Local history.
	mask := uint32(1)<<p.cfg.LocalHistBits - 1
	p.localHist[li] = ((lh << 1) | b2u32(taken)) & mask
}

// BTB: indirect target prediction.

func (p *Predictor) btbIdx(pc uint64) int {
	return int(pcIndex(pc) & uint64(p.cfg.BTBEntries-1))
}

func btbTagOf(pc uint64) uint16 { return uint16(pcIndex(pc) >> 9) }

// PredictIndirect returns the predicted target of the indirect jump at pc.
func (p *Predictor) PredictIndirect(pc uint64) (uint64, bool) {
	i := p.btbIdx(pc)
	if p.btbValid[i] && p.btbTag[i] == btbTagOf(pc) {
		return p.btbTarget[i], true
	}
	return 0, false
}

// UpdateIndirect records the resolved target of the indirect jump at pc.
func (p *Predictor) UpdateIndirect(pc, target uint64) {
	i := p.btbIdx(pc)
	p.btbTag[i] = btbTagOf(pc)
	p.btbTarget[i] = target
	p.btbValid[i] = true
}

func satInc(v, max uint8) uint8 {
	if v < max {
		return v + 1
	}
	return v
}

func satDec(v uint8) uint8 {
	if v > 0 {
		return v - 1
	}
	return v
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
