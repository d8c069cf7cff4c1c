package branch

// Composite branch-confidence estimation (Jiménez, "Composite Confidence
// Estimators for Enhanced Speculation Control", SBAC-PAD 2009), as adopted by
// B-Fetch §IV-B1: three signals are combined into an estimate of the
// probability that a particular dynamic branch prediction is correct.
//
//   - JRS counters (Jacobsen/Rotenberg/Smith): saturating counters indexed by
//     PC ⊕ GHR that increment on a correct prediction and reset on a
//     misprediction, so high values mean a long correct streak.
//   - Up/down counters: the same index, but decremented rather than reset, a
//     slower-decaying signal.
//   - Self counters: the strength of the direction counter the tournament
//     predictor actually used.
//
// The composite estimate maps the combined signal onto a correctness
// probability in [MinProb, MaxProb]. The B-Fetch path confidence is the
// product of these per-branch probabilities along the lookahead path.

import "fmt"

// ConfidenceConfig sizes the estimator. The default (2048 entries of 4+4
// bits) matches Table I's "Path Confidence Estimator: 2048 entries, 2 KB".
type ConfidenceConfig struct {
	Entries int     // entries in each of the JRS and up/down tables
	JRSBits int     // width of the JRS counters
	UDBits  int     // width of the up/down counters
	MinProb float64 // probability assigned at zero composite signal
	MaxProb float64 // probability assigned at full composite signal
}

// DefaultConfidenceConfig returns the Table I configuration.
func DefaultConfidenceConfig() ConfidenceConfig {
	return ConfidenceConfig{
		Entries: 2048,
		JRSBits: 4,
		UDBits:  4,
		MinProb: 0.70,
		MaxProb: 0.999,
	}
}

// Confidence is the composite estimator.
type Confidence struct {
	cfg    ConfidenceConfig
	jrs    []uint8
	ud     []uint8
	jrsMax uint8
	udMax  uint8
}

// Validate reports a table size NewConfidence cannot build.
func (cfg ConfidenceConfig) Validate() error {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return fmt.Errorf("branch: confidence entries %d is not a positive power of two", cfg.Entries)
	}
	return nil
}

// NewConfidence builds an estimator; it panics on a configuration Validate
// rejects.
func NewConfidence(cfg ConfidenceConfig) *Confidence {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Confidence{
		cfg:    cfg,
		jrs:    make([]uint8, cfg.Entries),
		ud:     make([]uint8, cfg.Entries),
		jrsMax: uint8(1)<<cfg.JRSBits - 1,
		udMax:  uint8(1)<<cfg.UDBits - 1,
	}
}

// Config returns the estimator's configuration.
func (c *Confidence) Config() ConfidenceConfig { return c.cfg }

// StorageBits reports the estimator's state budget.
func (c *Confidence) StorageBits() int {
	return c.cfg.Entries * (c.cfg.JRSBits + c.cfg.UDBits)
}

func (c *Confidence) idx(pc uint64, ghr GHR) int {
	return int((pcIndex(pc) ^ uint64(ghr)) & uint64(c.cfg.Entries-1))
}

// Estimate returns the probability that the prediction pred for the branch
// at pc (made under history ghr) is correct. Pure; reads only.
//
//bfetch:hotpath
func (c *Confidence) Estimate(pc uint64, ghr GHR, pred Pred) float64 {
	i := c.idx(pc, ghr)
	// Each signal is normalized to [0,1] and the three are averaged; the
	// composite is then mapped onto the configured probability band.
	sJRS := float64(c.jrs[i]) / float64(c.jrsMax)
	sUD := float64(c.ud[i]) / float64(c.udMax)
	sSelf := pred.Strength()
	composite := (sJRS + sUD + sSelf) / 3
	return c.cfg.MinProb + (c.cfg.MaxProb-c.cfg.MinProb)*composite
}

// Update trains the estimator with the outcome of one prediction.
//
//bfetch:hotpath
func (c *Confidence) Update(pc uint64, ghr GHR, correct bool) {
	i := c.idx(pc, ghr)
	if correct {
		c.jrs[i] = satInc(c.jrs[i], c.jrsMax)
		c.ud[i] = satInc(c.ud[i], c.udMax)
	} else {
		c.jrs[i] = 0 // resetting counter
		c.ud[i] = satDec(c.ud[i])
	}
}

// PathConfidence accumulates confidence along a speculative lookahead path,
// following Malik et al.'s probability-based path confidence: the running
// product of per-branch correctness probabilities. B-Fetch terminates
// lookahead when the product falls below its threshold (0.75 by default,
// Table II).
type PathConfidence struct {
	Threshold float64 //bfetch:noreset configuration, not a counter
	product   float64
	depth     int
}

// NewPathConfidence returns an accumulator with the given threshold, reset
// to full confidence.
func NewPathConfidence(threshold float64) *PathConfidence {
	return &PathConfidence{Threshold: threshold, product: 1}
}

// Reset restarts the path at full confidence (a new lookahead).
func (pc *PathConfidence) Reset() { pc.product, pc.depth = 1, 0 }

// Extend multiplies in one predicted branch's confidence and reports whether
// the path is still above threshold.
func (pc *PathConfidence) Extend(prob float64) bool {
	pc.product *= prob
	pc.depth++
	return pc.product >= pc.Threshold
}

// Value returns the current cumulative path confidence.
func (pc *PathConfidence) Value() float64 { return pc.product }

// Depth returns how many branches have been accumulated since Reset.
func (pc *PathConfidence) Depth() int { return pc.depth }
