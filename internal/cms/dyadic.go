package cms

import (
	"fmt"

	"repro/internal/hist"
)

// Dyadic range structure: one sketch per dyadic level, supporting range
// counts and approximate quantiles — the standard CM-sketch applications
// the paper cites (point and range queries, quantiles). Level l sketches
// the stream with items truncated to their high bits (item >> l), so any
// interval [lo, hi] decomposes into O(log U) dyadic nodes, one or two per
// level.
//
// Ingestion builds the minibatch histogram once and sorts it by item;
// level l+1's histogram is then level l's with every item shifted right
// one bit and equal neighbours merged (hist.Halve). The per-level
// histograms shrink geometrically, so the whole stack costs O(µ) for the
// histogram plus O(Σ_l D_l) for D_l distinct items at level l, not
// O(bits·µ).

// RangeSketch answers approximate range-count and quantile queries over a
// universe of size 2^bits.
type RangeSketch struct {
	bits   int
	levels []*Sketch

	// Batch scratch, reused across calls under the caller's write gate:
	// ProcessBatch's histogram builder and the two buffers successive
	// level histograms alternate between.
	hb   hist.Builder
	roll [2][]hist.Entry
}

// NewRange creates a dyadic range sketch over the universe [0, 2^bits)
// with per-level error εm and failure probability δ.
func NewRange(bits int, epsilon, delta float64, seed int64) *RangeSketch {
	if bits < 1 || bits > 63 {
		panic("cms: bits must be in [1, 63]")
	}
	r := &RangeSketch{bits: bits}
	r.levels = make([]*Sketch, bits+1)
	for l := range r.levels {
		r.levels[l] = New(epsilon, delta, seed+int64(l)*977)
	}
	return r
}

// Bits returns the universe size exponent.
func (r *RangeSketch) Bits() int { return r.bits }

// TotalCount returns m, the total weight ingested.
func (r *RangeSketch) TotalCount() int64 { return r.levels[0].TotalCount() }

// Update adds count occurrences of item to every level.
func (r *RangeSketch) Update(item uint64, count int64) {
	for l, s := range r.levels {
		s.Update(item>>uint(l), count)
	}
}

// ProcessBatch ingests a minibatch into every level: one histogram of
// the batch, then AddHistogram. The table hash is salted with level 0's
// rolling seed, as when each level histogrammed for itself.
func (r *RangeSketch) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	base := r.levels[0]
	base.seed++
	r.AddHistogram(r.hb.Build(items, base.seed^0x636d73))
}

// AddHistogram folds the histogram of a minibatch (one entry per
// distinct item) into every level, level by level: level 0 takes h
// sorted by item, and each level above takes the one below, halved. h is
// only read.
func (r *RangeSketch) AddHistogram(h []hist.Entry) {
	cur, next := hist.SortByItem(h, r.roll[0], r.roll[1])
	for l, s := range r.levels {
		if l > 0 {
			cur, next = hist.Halve(next[:0], cur), cur
		}
		s.AddHistogram(cur)
	}
	r.roll[0], r.roll[1] = cur, next // keep the grown buffers
}

// RangeCount estimates the number of stream items in [lo, hi]
// (inclusive). The estimate never undercounts; it overcounts by at most
// O(εm log U) with high probability.
func (r *RangeSketch) RangeCount(lo, hi uint64) int64 {
	if lo > hi {
		return 0
	}
	// Walk levels bottom-up, peeling unaligned endpoints: at level l the
	// node v covers universe values [v·2^l, (v+1)·2^l). An odd lo or even
	// hi node has a parent that would overcount, so it is counted at this
	// level; the rest is covered by parents.
	var total int64
	l := 0
	for lo <= hi {
		if lo == hi {
			total += r.levels[l].Query(lo)
			break
		}
		if lo&1 == 1 {
			total += r.levels[l].Query(lo)
			lo++
		}
		if hi&1 == 0 {
			total += r.levels[l].Query(hi)
			hi-- // hi > lo >= 0 here, so no underflow
		}
		if lo > hi {
			break
		}
		lo >>= 1
		hi >>= 1
		l++
	}
	return total
}

// Quantile returns an approximate q-quantile (q in [0, 1]): a universe
// value v such that the prefix count of [0, v] is approximately q·m.
// Binary search over prefix range counts.
func (r *RangeSketch) Quantile(q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(r.TotalCount()))
	lo, hi := uint64(0), uint64(1)<<uint(r.bits)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if r.RangeCount(0, mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SpaceWords estimates the memory footprint in 64-bit words.
func (r *RangeSketch) SpaceWords() int {
	total := 2
	for _, s := range r.levels {
		total += s.SpaceWords()
	}
	return total
}

// Compatible reports whether o can merge into r: the same universe and,
// level by level, the same dimensions and hash functions.
func (r *RangeSketch) Compatible(o *RangeSketch) error {
	if r.bits != o.bits {
		return fmt.Errorf("cms: merge universe mismatch (2^%d vs 2^%d)", r.bits, o.bits)
	}
	if len(r.levels) != len(o.levels) {
		return fmt.Errorf("cms: merge level count mismatch (%d vs %d)", len(r.levels), len(o.levels))
	}
	for l, s := range r.levels {
		if err := s.Compatible(o.levels[l]); err != nil {
			return fmt.Errorf("cms: merge mismatch at level %d: %w", l, err)
		}
	}
	return nil
}

// Merge folds another range sketch into r level-wise. Every level is
// checked before any is touched, so a mismatch cannot leave the stack
// half-merged.
func (r *RangeSketch) Merge(o *RangeSketch) error { return r.add(o, 1) }

// Subtract takes a range sketch previously merged into r back out.
func (r *RangeSketch) Subtract(o *RangeSketch) error { return r.add(o, -1) }

func (r *RangeSketch) add(o *RangeSketch, sign int64) error {
	if err := r.Compatible(o); err != nil {
		return err
	}
	for l, s := range r.levels {
		if err := s.add(&o.levels[l].table, sign); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the range sketch.
func (r *RangeSketch) Clone() *RangeSketch {
	c := &RangeSketch{bits: r.bits}
	c.levels = make([]*Sketch, len(r.levels))
	for l, s := range r.levels {
		c.levels[l] = s.Clone()
	}
	return c
}

// RangeState is the serializable form of a RangeSketch.
type RangeState struct {
	Bits   int
	Levels []State
}

// State captures the range sketch for serialization.
func (r *RangeSketch) State() RangeState {
	st := RangeState{Bits: r.bits}
	for _, s := range r.levels {
		st.Levels = append(st.Levels, s.State())
	}
	return st
}

// RangeFromState reconstructs a range sketch, validating invariants.
func RangeFromState(st RangeState) (*RangeSketch, error) {
	if st.Bits < 1 || st.Bits > 63 {
		return nil, fmt.Errorf("cms: bad state bits %d", st.Bits)
	}
	if len(st.Levels) != st.Bits+1 {
		return nil, fmt.Errorf("cms: state has %d levels, want %d", len(st.Levels), st.Bits+1)
	}
	r := &RangeSketch{bits: st.Bits}
	for _, ls := range st.Levels {
		s, err := FromState(ls)
		if err != nil {
			return nil, err
		}
		r.levels = append(r.levels, s)
	}
	return r, nil
}
