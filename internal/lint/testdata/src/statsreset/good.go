package statsreset

// wholesale overwrites the entire struct: every field is accounted for.
type wholesale struct {
	a, b, c uint64
}

func (w *wholesale) ResetStats() {
	*w = wholesale{}
}

// annotated preserves learned state across resets and says so per field.
type annotated struct {
	count uint64
	table []int //bfetch:noreset learned state survives stats windows
	cfg   int   //bfetch:noreset configuration
}

func (a *annotated) ResetStats() {
	a.count = 0
}

// delegating resets one field via its own method, one by address-taking
// helper, one elementwise through a range, and one by tuple assignment.
type inner struct{ n int }

func (i *inner) Reset() { i.n = 0 }

func clear64(p *uint64) { *p = 0 }

type delegating struct {
	sub   inner
	total uint64
	ring  []int
	lo    int
	hi    int
}

func (d *delegating) Reset() {
	d.sub.Reset()
	clear64(&d.total)
	for i := range d.ring {
		d.ring[i] = 0
	}
	d.lo, d.hi = 0, 0
}

// embedded: anonymous fields are exempt — their own Reset methods are
// audited separately.
type embedded struct {
	inner
	ticks uint64
}

func (e *embedded) ResetStats() {
	e.ticks = 0
}
