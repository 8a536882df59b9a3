// Package mg implements the Misra-Gries summary and its parallel
// minibatch maintenance for infinite-window frequency estimation and
// heavy hitters (Sections 5.1-5.2 of the paper).
//
// A summary with capacity S = ⌈1/ε⌉ keeps at most S items with counters.
// Processing a minibatch of size µ runs buildHist (Theorem 2.3) and then
// MGAugment (Lemma 5.3): combine the summary with the histogram, find the
// cutoff ϕ — the (S+1)-st largest combined count — subtract ϕ from every
// count and keep the positive ones. Each unit of ϕ corresponds to a batch
// of decrements hitting more than S distinct counters, so the classic MG
// accounting (Lemma 5.1) gives f_e - εm <= Estimate(e) <= f_e. Total cost
// per minibatch: O(ε⁻¹ + µ) expected work (Theorem 5.2).
//
// The implementation keeps the work bound and, like hist.Builder, trades
// the theorem's polylog depth for compact allocation-free passes: the
// histogram comes from the resident table builder, the combine step is a
// lookup in an index of the live counters, and the cutoff is an in-place
// quickselect. The sort-based formulation (hist.Combine, parallel rank
// selection and pack) is kept as the reference in this package's tests.
package mg

import (
	"repro/internal/hashfn"
	"repro/internal/hist"
	"repro/internal/parallel"
)

// Summary is a Misra-Gries summary maintained over minibatches.
type Summary struct {
	capS    int
	entries []hist.Entry // at most capS live counters
	// slots is an open-addressing index over entries: a slot holds the
	// position+1 of an item's counter, 0 when empty. It is rebuilt only
	// when a batch changes which items are tracked.
	slots []int32
	m     int64 // stream length observed so far
	seed  int64 // rolling salt for the batch histogram's table hash

	hb    hist.Builder // ProcessBatch's resident histogram builder
	freqs []int64      // scratch for the cutoff selection
}

// New creates a summary with error parameter epsilon in (0, 1]:
// capacity S = ⌈1/ε⌉ counters.
func New(epsilon float64) *Summary {
	if epsilon <= 0 || epsilon > 1 {
		panic("mg: epsilon must be in (0, 1]")
	}
	s := int(1 / epsilon)
	if float64(s) < 1/epsilon {
		s++
	}
	return NewWithCapacity(s)
}

// NewWithCapacity creates a summary with exactly s counters (ε = 1/s).
func NewWithCapacity(s int) *Summary {
	if s < 1 {
		panic("mg: capacity must be >= 1")
	}
	return &Summary{capS: s, seed: 0x6d67}
}

// Capacity returns S, the maximum number of counters.
func (g *Summary) Capacity() int { return g.capS }

// StreamLen returns the number of items observed so far.
func (g *Summary) StreamLen() int64 { return g.m }

// ProcessBatch ingests a minibatch of items (Theorem 5.2): one pass of
// the resident histogram builder, then AddHistogram.
func (g *Summary) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	g.seed++
	g.AddHistogram(g.hb.Build(items, g.seed))
}

// AddHistogram ingests a minibatch given as its histogram (one entry per
// distinct item, positive frequencies): MGaugment, plus the stream
// length the histogram accounts for. h is only read.
func (g *Summary) AddHistogram(h []hist.Entry) {
	g.AugmentHist(h)
	for _, e := range h {
		g.m += e.Freq
	}
}

// AugmentHist merges a pre-computed histogram into the summary
// (MGaugment, Lemma 5.3) without advancing the stream length. The
// histogram must have one entry per distinct item and is only read.
//
// The combine step looks each batch entry up in the index of the <= S
// live counters — adding to the counter when the item is tracked,
// appending a candidate when it is not — so it costs O(len(h)) plus,
// only when the tracked set changes, O(S) for the cutoff and the index.
// ϕ and the kept counters are exactly those of the sort-based
// hist.Combine formulation; only their order differs.
func (g *Summary) AugmentHist(h []hist.Entry) {
	tracked := len(g.entries)
	for _, e := range h {
		if p := g.find(e.Item); p >= 0 {
			g.entries[p].Freq += e.Freq
		} else {
			g.entries = append(g.entries, e)
		}
	}
	combined := g.entries
	if len(combined) == tracked {
		return // every batch item was already tracked: no counter can die
	}
	phi := int64(0)
	if len(combined) > g.capS {
		// ϕ = (S+1)-st largest combined count: subtracting it everywhere
		// kills all but at most S counters, and every unit subtracted
		// decrements > S distinct counters (Lemma 5.3's accounting).
		if cap(g.freqs) < len(combined) {
			g.freqs = make([]int64, len(combined))
		}
		freqs := g.freqs[:len(combined)]
		for i, e := range combined {
			freqs[i] = e.Freq
		}
		phi = parallel.SelectKthSeq(freqs, len(freqs)-(g.capS+1))
	}
	kept := combined[:0]
	for _, e := range combined {
		if e.Freq > phi {
			kept = append(kept, hist.Entry{Item: e.Item, Freq: e.Freq - phi})
		}
	}
	g.entries = kept
	g.reindex()
}

// slotOf returns the home slot of item in a table with the given mask.
func slotOf(item, mask uint64) uint64 { return hashfn.Mix64(item^0x6d67) & mask }

// find returns the position of item's counter in entries, or -1.
func (g *Summary) find(item uint64) int {
	if len(g.slots) == 0 {
		return -1
	}
	mask := uint64(len(g.slots) - 1)
	for j := slotOf(item, mask); ; j = (j + 1) & mask {
		p := g.slots[j]
		if p == 0 {
			return -1
		}
		if g.entries[p-1].Item == item {
			return int(p - 1)
		}
	}
}

// reindex rebuilds the index over entries: a power-of-two table at load
// factor <= 1/4 (most batch lookups miss, and a miss probes to the first
// empty slot), reallocated only when the summary outgrows it.
func (g *Summary) reindex() {
	if need := 4 * len(g.entries); len(g.slots) < need {
		size := 16
		for size < need {
			size <<= 1
		}
		g.slots = make([]int32, size)
	} else {
		clear(g.slots)
	}
	mask := uint64(len(g.slots) - 1)
	for i, e := range g.entries {
		j := slotOf(e.Item, mask)
		for g.slots[j] != 0 {
			j = (j + 1) & mask
		}
		g.slots[j] = int32(i + 1)
	}
}

// Estimate returns the summary's estimate for item e, satisfying
// f_e - εm <= Estimate(e) <= f_e (0 for items not tracked).
func (g *Summary) Estimate(e uint64) int64 {
	if p := g.find(e); p >= 0 {
		return g.entries[p].Freq
	}
	return 0
}

// Entries returns the live counters (at most S), in arbitrary order. The
// caller must not modify the returned slice.
func (g *Summary) Entries() []hist.Entry { return g.entries }

// HeavyHitters returns every tracked item whose estimate is at least
// (φ-ε)·m — the standard reduction from frequency estimation (Section 5):
// it includes every item with f_e >= φm and no item with f_e < (φ-2ε)m...
// precisely, no item with f_e < (φ-ε)m is ever reported since estimates
// never exceed true counts.
func (g *Summary) HeavyHitters(phi float64) []uint64 {
	eps := 1 / float64(g.capS)
	thr := (phi - eps) * float64(g.m)
	var out []uint64
	for _, e := range g.entries {
		if float64(e.Freq) >= thr {
			out = append(out, e.Item)
		}
	}
	return out
}

// SpaceWords estimates the memory footprint in 64-bit words: 2 words per
// live counter plus the index.
func (g *Summary) SpaceWords() int { return 4*len(g.entries) + 4 }
