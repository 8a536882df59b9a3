// Package cms implements the count-min sketch [CM05] with the paper's
// parallel minibatch ingestion (Section 6, Theorem 6.1). The sketch is a
// d×w counter array (d = ⌈ln(1/δ)⌉ rows, w = ⌈e/ε⌉ columns) with one
// hash per row. A point query returns the minimum of the item's d cells
// and satisfies f_e <= Query(e) <= f_e + εm with probability at least
// 1-δ.
//
// Row addressing comes in two schemes. New sketches use SchemeDerived:
// one 64-bit base hash per item, with row i's column derived as
// (g1 + i·g2) mod w (Kirsch–Mitzenmacher [KM08]), so ingesting an item
// into all d rows costs one hash plus d multiply-adds and the batch path
// reuses per-instance scratch for zero steady-state allocations.
// SchemeLegacyPairwise — one pairwise-independent modular hash per row —
// is kept only so checkpoints written before the derived scheme restore
// onto the exact cells they were built with.
//
// Minibatch ingestion first builds a histogram (Theorem 2.3), then adds
// each distinct item's total per row. Under the derived scheme each row
// is owned by one writer goroutine, which preserves the CRCW-combining
// single-writer property; the legacy path keeps the per-row column
// sort the paper describes. Cost: O(d·max(µ, w)) work and polylog depth.
package cms

import (
	"math"

	"repro/internal/hashfn"
	"repro/internal/hist"
	"repro/internal/parallel"
)

// Hash-scheme tags, serialized in State.Scheme. The zero value must stay
// SchemeLegacyPairwise: checkpoints written before the tag existed gob-
// decode Scheme as 0 and their cells were addressed by pairwise hashing.
const (
	// SchemeLegacyPairwise draws one pairwise hash over GF(2^61-1) per
	// row from math/rand (including the historical aliased key folding
	// and correlated seed+i*k row seeding — bug-compatible on purpose,
	// since restored cells are only readable with the hashes that wrote
	// them). Reachable only by restoring an old checkpoint.
	SchemeLegacyPairwise = 0
	// SchemeDerived is the Kirsch–Mitzenmacher derived-row scheme over
	// the full 64-bit key domain; the default for new sketches.
	SchemeDerived = 1
)

// Sketch is a count-min sketch.
type Sketch struct {
	d, w     int
	rows     [][]int64
	scheme   int
	base     hashfn.Derived    // SchemeDerived row addressing
	hashes   []hashfn.Pairwise // SchemeLegacyPairwise row addressing
	m        int64
	hashSeed int64 // constructor seed: determines the hash functions
	seed     int64 // rolling seed for per-batch histogram hashing

	// Per-instance batch scratch, reused across ProcessBatch calls (the
	// caller's write gate serializes them): the histogram builder plus
	// the per-entry base-hash pairs shared by all rows.
	hb     hist.Builder
	g1, g2 []uint64
}

// New creates a sketch with error εm (ε in (0,1]) at failure probability
// δ (in (0,1)): w = ⌈e/ε⌉ columns, d = ⌈ln(1/δ)⌉ rows.
func New(epsilon, delta float64, seed int64) *Sketch {
	if epsilon <= 0 || epsilon > 1 {
		panic("cms: epsilon must be in (0, 1]")
	}
	if delta <= 0 || delta >= 1 {
		panic("cms: delta must be in (0, 1)")
	}
	w := int(math.Ceil(math.E / epsilon))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	return NewWithDims(d, w, seed)
}

// NewWithDims creates a d×w sketch directly, using the derived-row
// hashing scheme.
func NewWithDims(d, w int, seed int64) *Sketch {
	return NewWithDimsScheme(d, w, seed, SchemeDerived)
}

// NewWithDimsScheme creates a d×w sketch with an explicit hash scheme.
// SchemeLegacyPairwise exists only for checkpoint restoration; new
// sketches use SchemeDerived.
func NewWithDimsScheme(d, w int, seed int64, scheme int) *Sketch {
	if d < 1 || w < 1 {
		panic("cms: dimensions must be >= 1")
	}
	if scheme != SchemeLegacyPairwise && scheme != SchemeDerived {
		panic("cms: unknown hash scheme")
	}
	s := &Sketch{d: d, w: w, scheme: scheme, hashSeed: seed, seed: seed}
	s.rows = make([][]int64, d)
	flat := make([]int64, d*w)
	for i := 0; i < d; i++ {
		s.rows[i] = flat[i*w : (i+1)*w]
	}
	if scheme == SchemeDerived {
		s.base = hashfn.NewDerived(uint64(w), seed)
		return s
	}
	s.hashes = make([]hashfn.Pairwise, d)
	for i := 0; i < d; i++ {
		s.hashes[i] = hashfn.NewPairwise(uint64(w), seed+int64(i)*0x9e37+1)
	}
	return s
}

// Depth returns d, the number of rows.
func (s *Sketch) Depth() int { return s.d }

// Width returns w, the number of columns.
func (s *Sketch) Width() int { return s.w }

// Scheme returns the row-addressing scheme tag.
func (s *Sketch) Scheme() int { return s.scheme }

// TotalCount returns m, the total weight ingested.
func (s *Sketch) TotalCount() int64 { return s.m }

// col returns row i's column for item under the sketch's scheme — the
// reference addressing the sequential paths use; the batch path hoists
// the base-hash computation out of the row loop.
func (s *Sketch) col(i int, item uint64) uint64 {
	if s.scheme == SchemeDerived {
		return s.base.Hash(item, i)
	}
	return s.hashes[i].HashAliased(item)
}

// Update adds count occurrences of item (the sequential reference path).
func (s *Sketch) Update(item uint64, count int64) {
	if s.scheme == SchemeDerived {
		g1, g2 := s.base.Base(item)
		for i := 0; i < s.d; i++ {
			s.rows[i][s.base.Row(g1, g2, i)] += count
		}
	} else {
		for i := 0; i < s.d; i++ {
			s.rows[i][s.hashes[i].HashAliased(item)] += count
		}
	}
	s.m += count
}

// ProcessBatch ingests a minibatch of items with the parallel algorithm
// of Theorem 6.1: one pass of the resident histogram builder, then
// AddHistogram.
//
//agglint:hotpath
func (s *Sketch) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	s.seed++
	s.AddHistogram(s.hb.Build(items, s.seed^0x636d73))
}

// AddHistogram folds a precomputed histogram into the sketch; h is only
// read. Under the derived scheme the base-hash pair is computed once per
// entry (into reused scratch) and each row is folded by a single owner
// goroutine — one hash per item, zero allocations in steady state. The
// legacy scheme keeps the per-row column sort of the CRCW-combining
// simulation.
//
//agglint:hotpath
func (s *Sketch) AddHistogram(h []hist.Entry) {
	p := len(h)
	if p == 0 {
		return
	}
	if s.scheme == SchemeDerived {
		s.addHistogramDerived(h)
	} else {
		s.addHistogramLegacy(h)
	}
	var add int64
	for _, en := range h {
		add += en.Freq
	}
	s.m += add
}

// grow returns buf resized to n, reallocating only when capacity grew.
//
//agglint:hotpath
func grow(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

//agglint:hotpath
func (s *Sketch) addHistogramDerived(h []hist.Entry) {
	p := len(h)
	grow(&s.g1, p)
	grow(&s.g2, p)
	if p*s.d < parallel.MinFork {
		// Too few cell updates to pay for a fork-join (the upper levels
		// of a dyadic stack carry a handful of entries each).
		s.hashEntries(h, 0, p)
		s.foldRows(h, 0, s.d)
		return
	}
	parallel.Blocks(p, parallel.DefaultGrain, func(lo, hi int) { s.hashEntries(h, lo, hi) })
	parallel.Blocks(s.d, 1, func(lo, hi int) { s.foldRows(h, lo, hi) })
}

// hashEntries fills the base-hash scratch for entries [lo, hi) of h.
//
//agglint:hotpath
func (s *Sketch) hashEntries(h []hist.Entry, lo, hi int) {
	for j := lo; j < hi; j++ {
		s.g1[j], s.g2[j] = s.base.Base(h[j].Item)
	}
}

// foldRows adds h into rows [lo, hi), one row at a time; the caller is
// those rows' only writer.
//
//agglint:hotpath
func (s *Sketch) foldRows(h []hist.Entry, lo, hi int) {
	g1, g2 := s.g1, s.g2
	for i := lo; i < hi; i++ {
		row := s.rows[i]
		for j, en := range h {
			row[s.base.Row(g1[j], g2[j], i)] += en.Freq
		}
	}
}

func (s *Sketch) addHistogramLegacy(h []hist.Entry) {
	p := len(h)
	parallel.ForGrain(s.d, 1, func(i int) {
		row := s.rows[i]
		hash := s.hashes[i]
		if p < 2048 {
			// Small batches: one writer per row already owns all cells.
			for _, en := range h {
				row[hash.HashAliased(en.Item)] += en.Freq
			}
			return
		}
		cols := make([]uint32, p)
		idx := make([]int32, p)
		parallel.ForGrain(p, parallel.DefaultGrain, func(j int) {
			cols[j] = uint32(hash.HashAliased(h[j].Item))
			idx[j] = int32(j)
		})
		parallel.RadixSortPairs(cols, idx, uint32(s.w))
		starts := parallel.PackIndices(p, func(j int) bool {
			return j == 0 || cols[j] != cols[j-1]
		})
		parallel.ForGrain(len(starts), 8, func(b int) {
			lo := starts[b]
			hi := p
			if b+1 < len(starts) {
				hi = starts[b+1]
			}
			var total int64
			for j := lo; j < hi; j++ {
				total += h[idx[j]].Freq
			}
			row[cols[lo]] += total
		})
	})
}

// Query returns the point estimate for item: the minimum of its d cells,
// computed with a parallel reduce (the paper's O(log log(1/δ))-depth
// min).
func (s *Sketch) Query(item uint64) int64 {
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
				if v := s.rows[i][s.col(i, item)]; v < best {
					best = v
				}
			}
			return best
		})
}

// InnerProduct estimates the inner product of the frequency vectors
// summarized by s and o, which must have identical dimensions and seeds
// (a standard CM-sketch application).
func (s *Sketch) InnerProduct(o *Sketch) int64 {
	if s.d != o.d || s.w != o.w {
		panic("cms: InnerProduct dimension mismatch")
	}
	best := int64(1) << 62
	for i := 0; i < s.d; i++ {
		var dot int64
		for j := 0; j < s.w; j++ {
			dot += s.rows[i][j] * o.rows[i][j]
		}
		if dot < best {
			best = dot
		}
	}
	return best
}

// SpaceWords estimates the memory footprint in 64-bit words.
func (s *Sketch) SpaceWords() int { return s.d*s.w + 3*s.d + 4 }
