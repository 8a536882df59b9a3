package cms

import (
	"math"
	"math/bits"

	"repro/internal/hist"
)

// CountSketch is the Count-Sketch of Charikar, Chen and Farach-Colton
// [CCFC02] (cited in the paper's related work). Unlike count-min it is
// unbiased: each row adds s_i(e)·count to cell h_i(e) for a ±1 sign
// s_i, and a point query returns the median over rows of s_i(e)·cell.
// Error is ±ε·‖f‖₂ with probability 1−δ, which beats count-min's εm on
// heavy-tailed streams. All d row signs come from one sign word derived
// from the item's base hash pair.
type CountSketch struct {
	table
	sw []uint64 // per-entry sign words, forked-fold scratch like g1 and g2
}

// NewCountSketch creates a sketch with w = ⌈3/ε²⌉ columns and
// d = ⌈ln(1/δ)⌉ rows (point error ±ε‖f‖₂ with probability 1−δ).
func NewCountSketch(epsilon, delta float64, seed int64) *CountSketch {
	if epsilon <= 0 || epsilon > 1 {
		panic("cms: count-sketch epsilon must be in (0, 1]")
	}
	if delta <= 0 || delta >= 1 {
		panic("cms: count-sketch delta must be in (0, 1)")
	}
	return NewCountSketchWithDims(depth(delta), int(math.Ceil(3/(epsilon*epsilon))), seed)
}

// NewCountSketchWithDims creates a d×w count-sketch directly.
func NewCountSketchWithDims(d, w int, seed int64) *CountSketch {
	return &CountSketch{table: newTable(d, w, seed)}
}

// CountSketchFromState reconstructs a count-sketch, validating
// invariants.
func CountSketchFromState(st State) (*CountSketch, error) {
	t, err := fromState(st)
	if err != nil {
		return nil, err
	}
	return &CountSketch{table: t}, nil
}

// signFromWord extracts row i's ±1 sign from a derived sign word.
func signFromWord(sw uint64, i int) int64 {
	return int64((sw>>(uint(i)&63))&1)*2 - 1
}

// Update adds count occurrences of item (sequential path); count may be
// negative.
func (s *CountSketch) Update(item uint64, count int64) {
	g1, g2 := s.base.Base(item)
	sw := s.base.SignWord(g1, g2)
	for i, row := range s.rows {
		row[s.base.Row(g1, g2, i)] += signFromWord(sw, i) * count
	}
	s.m += count
}

// ProcessBatch ingests a minibatch in parallel: one pass of the resident
// histogram builder, then AddHistogram.
func (s *CountSketch) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	s.seed++
	s.AddHistogram(s.hb.Build(items, s.seed^0x6373))
}

// AddHistogram folds a precomputed histogram (one entry per distinct
// item) into the sketch; h is only read.
func (s *CountSketch) AddHistogram(h []hist.Entry) {
	if s.forks(len(h)) {
		grow(&s.sw, len(h))
	}
	s.addHistogram(h, s)
}

// fold adds every entry of h, signed, to its d cells in one pass per
// entry: one base hash and one sign word, then d columns stepped
// g1 += g2 as in Sketch.fold. It returns the weight added.
func (s *CountSketch) fold(h []hist.Entry) (m int64) {
	w := uint64(s.w)
	for _, en := range h {
		g1, g2 := s.base.Base(en.Item)
		sw := s.base.SignWord(g1, g2)
		for i, row := range s.rows {
			col, _ := bits.Mul64(g1, w)
			row[col] += signFromWord(sw, i) * en.Freq
			g1 += g2
		}
		m += en.Freq
	}
	return m
}

// hashEntries fills the base-hash and sign-word scratch for entries
// [lo, hi) of h.
func (s *CountSketch) hashEntries(h []hist.Entry, lo, hi int) {
	for j := lo; j < hi; j++ {
		s.g1[j], s.g2[j] = s.base.Base(h[j].Item)
		s.sw[j] = s.base.SignWord(s.g1[j], s.g2[j])
	}
}

// foldRows adds h, signed, into rows [lo, hi), one row at a time; the
// caller is those rows' only writer.
func (s *CountSketch) foldRows(h []hist.Entry, lo, hi int) {
	w := uint64(s.w)
	g1, g2, sw := s.g1[:len(h)], s.g2[:len(h)], s.sw[:len(h)]
	for i := lo; i < hi; i++ {
		row, step := s.rows[i], uint64(i)
		for j, en := range h {
			col, _ := bits.Mul64(g1[j]+step*g2[j], w)
			row[col] += signFromWord(sw[j], i) * en.Freq
		}
	}
}

// Query returns the median-of-rows point estimate for item. It is
// unbiased; |Query(e) - f_e| <= ε·‖f‖₂ with probability >= 1-δ.
func (s *CountSketch) Query(item uint64) int64 {
	g1, g2 := s.base.Base(item)
	sw := s.base.SignWord(g1, g2)
	var buf [32]int64 // d = ⌈ln(1/δ)⌉ fits for any δ ≥ e⁻³²
	ests := buf[:0]
	if s.d > len(buf) {
		ests = make([]int64, 0, s.d)
	}
	for i, row := range s.rows {
		ests = append(ests, signFromWord(sw, i)*row[s.base.Row(g1, g2, i)])
	}
	return median(ests)
}

// median sorts xs in place by insertion (d is a handful of rows) and
// returns its median, the mean of the middle two when len(xs) is even.
func median(xs []int64) int64 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// Compatible reports whether o can merge into s: equal dimensions and
// hash seed.
func (s *CountSketch) Compatible(o *CountSketch) error { return s.compatible(&o.table) }

// Merge folds another count-sketch into s cell-wise. With identical
// dimensions and hash/sign functions, the cell sums of two sketches form
// the sketch of the concatenated streams, so the merged estimate keeps
// the ±ε‖f‖₂ guarantee for the combined frequency vector (and
// ‖f_A + f_B‖₂ <= ‖f_A‖₂ + ‖f_B‖₂ bounds the merged error by the sum of
// the parts). Incompatible sketches are rejected and s is left
// unchanged.
func (s *CountSketch) Merge(o *CountSketch) error { return s.add(&o.table, 1) }

// Subtract takes a sketch previously merged into s back out, cell-wise:
// Merge(o) then Subtract(o) restores s exactly.
func (s *CountSketch) Subtract(o *CountSketch) error { return s.add(&o.table, -1) }

// Clone returns a deep copy of the sketch.
func (s *CountSketch) Clone() *CountSketch { return &CountSketch{table: s.clone()} }
