package prefetch

import "fmt"

// Stride is the reference-prediction-table prefetcher of Chen & Baer,
// "Effective Hardware-Based Data Prefetching for High-Performance
// Processors" (IEEE ToC 1995): per-load-PC entries track the last address
// and observed stride through a two-bit state machine; once a stride is
// confirmed, the next Degree strided blocks are prefetched. The paper's
// evaluation found degree 8 best (§V-A) and uses that as the default.
type Stride struct {
	Drain
	entries []strideEntry //bfetch:noreset learned reference-prediction table
	mask    uint64        //bfetch:noreset configuration
	degree  int           //bfetch:noreset configuration
}

type strideState uint8

const (
	strideInitial strideState = iota
	strideTransient
	strideSteady
	strideNoPred
)

type strideEntry struct {
	valid    bool
	tag      uint64
	lastAddr uint64
	stride   int64
	state    strideState
}

// StrideConfig sizes the prefetcher.
type StrideConfig struct {
	Entries int // reference prediction table entries (power of two)
	Degree  int // strided blocks prefetched once steady
}

// DefaultStrideConfig matches the paper's configuration.
func DefaultStrideConfig() StrideConfig { return StrideConfig{Entries: 256, Degree: 8} }

// Validate reports a table size NewStride cannot build: the reference
// prediction table must be a positive power of two.
func (c StrideConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("prefetch: stride entries %d is not a positive power of two", c.Entries)
	}
	return nil
}

// NewStride builds the prefetcher; it panics on a configuration Validate
// rejects.
func NewStride(cfg StrideConfig) *Stride {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Stride{
		Drain:   NewDrain(100, 2),
		entries: make([]strideEntry, cfg.Entries),
		mask:    uint64(cfg.Entries - 1),
		degree:  cfg.Degree,
	}
}

func (s *Stride) Name() string { return "stride" }

// OnAccess trains the table on every demand load and queues prefetches when
// a stride is confirmed.
//
//bfetch:hotpath
func (s *Stride) OnAccess(a AccessInfo) {
	if a.Write {
		return
	}
	idx := (a.PC >> 2) & s.mask
	e := &s.entries[idx]
	if !e.valid || e.tag != a.PC {
		*e = strideEntry{valid: true, tag: a.PC, lastAddr: a.Addr, state: strideInitial}
		return
	}
	stride := int64(a.Addr) - int64(e.lastAddr)
	correct := stride == e.stride && stride != 0
	switch e.state {
	case strideInitial:
		if correct {
			e.state = strideSteady
		} else {
			e.stride = stride
			e.state = strideTransient
		}
	case strideTransient:
		if correct {
			e.state = strideSteady
		} else {
			e.stride = stride
			e.state = strideNoPred
		}
	case strideSteady:
		if !correct {
			e.state = strideInitial
		}
	case strideNoPred:
		if correct {
			e.state = strideTransient
		} else {
			e.stride = stride
		}
	}
	e.lastAddr = a.Addr
	if e.state == strideSteady {
		for i := 1; i <= s.degree; i++ {
			addr := uint64(int64(a.Addr) + int64(i)*e.stride)
			s.Push(Request{Addr: addr, LoadPC: a.PC})
		}
	}
}

// StorageBits: each entry holds a tag (32 bits of PC), last address
// (42-bit block-aligned + offset ⇒ 48), stride (16) and 2-bit state.
func (s *Stride) StorageBits() int {
	return len(s.entries)*(32+48+16+2) + s.Drain.StorageBits()
}

// NextN prefetches the N sequentially following blocks on every demand miss
// (Smith, 1978). It is not part of the paper's headline comparison but is
// the canonical lower bound on light-weight prefetching and is exercised by
// the examples and ablations.
type NextN struct {
	Drain
	n int //bfetch:noreset configuration
}

// NewNextN builds a next-N-lines prefetcher.
func NewNextN(n int) *NextN {
	return &NextN{n: n, Drain: NewDrain(100, 2)}
}

func (p *NextN) Name() string { return "next-n" }

//bfetch:hotpath
func (p *NextN) OnAccess(a AccessInfo) {
	if a.Hit || a.Write {
		return
	}
	base := a.Addr &^ uint64(63)
	for i := 1; i <= p.n; i++ {
		p.Push(Request{Addr: base + uint64(i*64), LoadPC: a.PC})
	}
}
