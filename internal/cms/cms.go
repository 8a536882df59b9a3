// Package cms implements the two linear frequency sketches with the
// paper's parallel minibatch ingestion (Section 6, Theorem 6.1): the
// count-min sketch [CM05] (Sketch, plus the dyadic RangeSketch built
// from it) and its signed twin, the Count-Sketch [CCFC02] (CountSketch).
// Both are a d×w counter array (d = ⌈ln(1/δ)⌉ rows) that adds each
// histogram entry to one cell per row, and they share that table; they
// differ only in how an entry lands in a row and how a query reads it.
//
// Rows are addressed by one 64-bit base hash pair (g1, g2) per item,
// with row i's column ⌊(g1 + i·g2)·w / 2⁶⁴⌋, a multiply-high range
// reduction (Kirsch–Mitzenmacher [KM08], hashfn.Derived.Row), so
// ingesting an item into all d rows costs one hash plus d multiply-adds.
//
// Minibatch ingestion first builds a histogram (Theorem 2.3), then folds
// each distinct item's total into its d cells. A fold below
// parallel.MinFork cell updates runs inline, one pass per entry. A
// larger one hashes the entries in parallel blocks, then gives each row
// one writer goroutine, which preserves the CRCW-combining single-writer
// property. The inline pass needs no scratch; the forked one hashes into
// per-instance scratch reused across batches. Neither allocates anything
// that grows with the batch. Cost: O(d·max(µ, w)) work and polylog depth.
package cms

import (
	"math"
	"math/bits"

	"repro/internal/hist"
	"repro/internal/parallel"
)

// Sketch is a count-min sketch: w = ⌈e/ε⌉ columns, and a point query
// returns the minimum of the item's d cells, which satisfies
// f_e <= Query(e) <= f_e + εm with probability at least 1-δ.
type Sketch struct{ table }

// New creates a sketch with error εm (ε in (0,1]) at failure probability
// δ (in (0,1)): w = ⌈e/ε⌉ columns, d = ⌈ln(1/δ)⌉ rows.
func New(epsilon, delta float64, seed int64) *Sketch {
	if epsilon <= 0 || epsilon > 1 {
		panic("cms: epsilon must be in (0, 1]")
	}
	if delta <= 0 || delta >= 1 {
		panic("cms: delta must be in (0, 1)")
	}
	return NewWithDims(depth(delta), int(math.Ceil(math.E/epsilon)), seed)
}

// depth is d = ⌈ln(1/δ)⌉, at least 1.
func depth(delta float64) int {
	return max(1, int(math.Ceil(math.Log(1/delta))))
}

// NewWithDims creates a d×w sketch directly.
func NewWithDims(d, w int, seed int64) *Sketch { return &Sketch{newTable(d, w, seed)} }

// FromState reconstructs a sketch, validating invariants.
func FromState(st State) (*Sketch, error) {
	t, err := fromState(st)
	if err != nil {
		return nil, err
	}
	return &Sketch{t}, nil
}

// Update adds count occurrences of item (the sequential reference path).
func (s *Sketch) Update(item uint64, count int64) {
	g1, g2 := s.base.Base(item)
	for i, row := range s.rows {
		row[s.base.Row(g1, g2, i)] += count
	}
	s.m += count
}

// ProcessBatch ingests a minibatch of items with the parallel algorithm
// of Theorem 6.1: one pass of the resident histogram builder, then
// AddHistogram.
func (s *Sketch) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	s.seed++
	s.AddHistogram(s.hb.Build(items, s.seed^0x636d73))
}

// AddHistogram folds a precomputed histogram (one entry per distinct
// item) into the sketch; h is only read.
func (s *Sketch) AddHistogram(h []hist.Entry) { s.addHistogram(h, s) }

// fold adds every entry of h to its d cells in one pass per entry: one
// base hash, then d columns stepped g1 += g2 through the multiply-high
// reduction of hashfn.Derived.Row, so the cells match Update's. It
// returns the weight added.
func (s *Sketch) fold(h []hist.Entry) (m int64) {
	w := uint64(s.w)
	for _, en := range h {
		g1, g2 := s.base.Base(en.Item)
		for _, row := range s.rows {
			col, _ := bits.Mul64(g1, w)
			row[col] += en.Freq
			g1 += g2
		}
		m += en.Freq
	}
	return m
}

// hashEntries fills the base-hash scratch for entries [lo, hi) of h.
func (s *Sketch) hashEntries(h []hist.Entry, lo, hi int) {
	for j := lo; j < hi; j++ {
		s.g1[j], s.g2[j] = s.base.Base(h[j].Item)
	}
}

// foldRows adds h into rows [lo, hi), one row at a time; the caller is
// those rows' only writer. Row i's column is hashfn.Derived.Row's.
func (s *Sketch) foldRows(h []hist.Entry, lo, hi int) {
	w := uint64(s.w)
	g1, g2 := s.g1[:len(h)], s.g2[:len(h)]
	for i := lo; i < hi; i++ {
		row, step := s.rows[i], uint64(i)
		for j, en := range h {
			col, _ := bits.Mul64(g1[j]+step*g2[j], w)
			row[col] += en.Freq
		}
	}
}

// Query returns the point estimate for item: the minimum of its d cells,
// computed with a parallel reduce (the paper's O(log log(1/δ))-depth
// min).
func (s *Sketch) Query(item uint64) int64 {
	g1, g2 := s.base.Base(item)
	return parallel.Reduce(s.d, 8, int64(1)<<62,
		func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		func(lo, hi int) int64 {
			best := int64(1) << 62
			for i := lo; i < hi; i++ {
				if v := s.rows[i][s.base.Row(g1, g2, i)]; v < best {
					best = v
				}
			}
			return best
		})
}

// Compatible reports whether o can merge into s: equal dimensions and
// hash seed.
func (s *Sketch) Compatible(o *Sketch) error { return s.compatible(&o.table) }

// Merge folds another sketch into s cell-wise. Two count-min sketches
// summarizing streams A and B with identical dimensions and hash
// functions sum to the sketch of A ++ B exactly, so the merged sketch
// keeps the εm guarantee with m = m_A + m_B — the mergeable-summaries
// property [ACH+13] that sharded and distributed deployments rely on.
// Incompatible sketches are rejected and s is left unchanged.
func (s *Sketch) Merge(o *Sketch) error { return s.add(&o.table, 1) }

// Subtract takes a sketch previously merged into s back out, cell-wise:
// the sketch is linear, so Merge(o) then Subtract(o) restores s exactly.
func (s *Sketch) Subtract(o *Sketch) error { return s.add(&o.table, -1) }

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch { return &Sketch{s.clone()} }
