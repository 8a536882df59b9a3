// Package countsketch implements the Count-Sketch of Charikar, Chen and
// Farach-Colton [CCFC02] (cited in the paper's related work) with the
// same parallel minibatch ingestion style as the count-min sketch
// (Section 6): histogram the batch, then per row group updates by column
// so every cell has a single writer.
//
// Unlike count-min, count-sketch is unbiased: each row adds s_i(e)·count
// to cell h_i(e) for a ±1 sign hash s_i, and a point query returns the
// median over rows of s_i(e)·cell. Error is ±ε·‖f‖₂ with probability
// 1−δ, which beats count-min's εm on heavy-tailed streams.
//
// Row addressing mirrors package cms: new sketches use the derived
// scheme (one base hash per item; row columns and all 64 row signs
// derived from the pair with multiply-adds), while the legacy
// two-pairwise-hashes-per-row scheme survives only for checkpoints
// written before the tag existed.
package countsketch

import (
	"math"
	"sort"

	"repro/internal/hashfn"
	"repro/internal/hist"
	"repro/internal/parallel"
)

// Hash-scheme tags, serialized in State.Scheme; the zero value must stay
// SchemeLegacyPairwise so untagged checkpoints restore with the hashing
// that addressed their cells (see package cms for the full story).
const (
	SchemeLegacyPairwise = 0
	SchemeDerived        = 1
)

// Sketch is a count-sketch.
type Sketch struct {
	d, w     int
	rows     [][]int64
	scheme   int
	base     hashfn.Derived    // SchemeDerived column + sign addressing
	cols     []hashfn.Pairwise // SchemeLegacyPairwise columns
	signs    []hashfn.Pairwise // SchemeLegacyPairwise signs
	m        int64
	hashSeed int64 // constructor seed: determines the hash functions
	seed     int64 // rolling seed for per-batch histogram hashing

	// Per-instance batch scratch, reused across ProcessBatch calls under
	// the caller's write gate: histogram builder, per-entry base-hash
	// pairs, and per-entry sign words.
	hb         hist.Builder
	g1, g2, sw []uint64
}

// New creates a sketch with w = ⌈3/ε²⌉ columns and d = ⌈ln(1/δ)⌉ rows
// (point error ±ε‖f‖₂ with probability 1−δ).
func New(epsilon, delta float64, seed int64) *Sketch {
	if epsilon <= 0 || epsilon > 1 {
		panic("countsketch: epsilon must be in (0, 1]")
	}
	if delta <= 0 || delta >= 1 {
		panic("countsketch: delta must be in (0, 1)")
	}
	w := int(math.Ceil(3 / (epsilon * epsilon)))
	d := int(math.Ceil(math.Log(1 / delta)))
	if d < 1 {
		d = 1
	}
	return NewWithDims(d, w, seed)
}

// NewWithDims creates a d×w sketch directly, using the derived scheme.
func NewWithDims(d, w int, seed int64) *Sketch {
	return NewWithDimsScheme(d, w, seed, SchemeDerived)
}

// NewWithDimsScheme creates a d×w sketch with an explicit hash scheme.
// SchemeLegacyPairwise exists only for checkpoint restoration; new
// sketches use SchemeDerived.
func NewWithDimsScheme(d, w int, seed int64, scheme int) *Sketch {
	if d < 1 || w < 1 {
		panic("countsketch: dimensions must be >= 1")
	}
	if scheme != SchemeLegacyPairwise && scheme != SchemeDerived {
		panic("countsketch: unknown hash scheme")
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
	s.cols = make([]hashfn.Pairwise, d)
	s.signs = make([]hashfn.Pairwise, d)
	for i := 0; i < d; i++ {
		s.cols[i] = hashfn.NewPairwise(uint64(w), seed+int64(i)*31+5)
		s.signs[i] = hashfn.NewPairwise(2, seed+int64(i)*57+11)
	}
	return s
}

// Depth returns d.
func (s *Sketch) Depth() int { return s.d }

// Width returns w.
func (s *Sketch) Width() int { return s.w }

// Scheme returns the row-addressing scheme tag.
func (s *Sketch) Scheme() int { return s.scheme }

// TotalCount returns the total ingested weight.
func (s *Sketch) TotalCount() int64 { return s.m }

// signFromWord extracts row i's ±1 sign from a derived sign word.
func signFromWord(sw uint64, i int) int64 {
	return int64((sw>>(uint(i)&63))&1)*2 - 1
}

func (s *Sketch) legacySign(i int, item uint64) int64 {
	return 2*int64(s.signs[i].HashAliased(item)) - 1
}

// Update adds count occurrences of item (sequential path).
func (s *Sketch) Update(item uint64, count int64) {
	if s.scheme == SchemeDerived {
		g1, g2 := s.base.Base(item)
		sw := s.base.SignWord(g1, g2)
		for i := 0; i < s.d; i++ {
			s.rows[i][s.base.Row(g1, g2, i)] += signFromWord(sw, i) * count
		}
	} else {
		for i := 0; i < s.d; i++ {
			s.rows[i][s.cols[i].HashAliased(item)] += s.legacySign(i, item) * count
		}
	}
	s.m += count
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

// ProcessBatch ingests a minibatch in parallel: one pass of the resident
// histogram builder, then AddHistogram.
//
//agglint:hotpath
func (s *Sketch) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	s.seed++
	s.AddHistogram(s.hb.Build(items, s.seed^0x6373))
}

// AddHistogram folds a precomputed histogram (one entry per distinct
// item) into the sketch; h is only read. Derived scheme: one base hash
// per entry with each row folded by a single owner goroutine, zero
// steady-state allocations. Restored old-scheme sketches keep the legacy
// per-row column grouping.
//
//agglint:hotpath
func (s *Sketch) AddHistogram(h []hist.Entry) {
	if len(h) == 0 {
		return
	}
	if s.scheme == SchemeDerived {
		s.processDerived(h)
	} else {
		s.processLegacy(h)
	}
	for _, en := range h {
		s.m += en.Freq
	}
}

//agglint:hotpath
func (s *Sketch) processDerived(h []hist.Entry) {
	p := len(h)
	grow(&s.g1, p)
	grow(&s.g2, p)
	grow(&s.sw, p)
	if p*s.d < parallel.MinFork {
		// Too few cell updates to pay for a fork-join.
		s.hashEntries(h, 0, p)
		s.foldRows(h, 0, s.d)
		return
	}
	parallel.Blocks(p, parallel.DefaultGrain, func(lo, hi int) { s.hashEntries(h, lo, hi) })
	parallel.Blocks(s.d, 1, func(lo, hi int) { s.foldRows(h, lo, hi) })
}

// hashEntries fills the base-hash and sign-word scratch for entries
// [lo, hi) of h.
//
//agglint:hotpath
func (s *Sketch) hashEntries(h []hist.Entry, lo, hi int) {
	for j := lo; j < hi; j++ {
		s.g1[j], s.g2[j] = s.base.Base(h[j].Item)
		s.sw[j] = s.base.SignWord(s.g1[j], s.g2[j])
	}
}

// foldRows adds h, signed, into rows [lo, hi), one row at a time; the
// caller is those rows' only writer.
//
//agglint:hotpath
func (s *Sketch) foldRows(h []hist.Entry, lo, hi int) {
	g1, g2, sw := s.g1, s.g2, s.sw
	for i := lo; i < hi; i++ {
		row := s.rows[i]
		for j, en := range h {
			row[s.base.Row(g1[j], g2[j], i)] += signFromWord(sw[j], i) * en.Freq
		}
	}
}

func (s *Sketch) processLegacy(h []hist.Entry) {
	p := len(h)
	parallel.ForGrain(s.d, 1, func(i int) {
		row := s.rows[i]
		if p < 2048 {
			for _, en := range h {
				row[s.cols[i].HashAliased(en.Item)] += s.legacySign(i, en.Item) * en.Freq
			}
			return
		}
		colKeys := make([]uint32, p)
		idx := make([]int32, p)
		parallel.ForGrain(p, parallel.DefaultGrain, func(j int) {
			colKeys[j] = uint32(s.cols[i].HashAliased(h[j].Item))
			idx[j] = int32(j)
		})
		parallel.RadixSortPairs(colKeys, idx, uint32(s.w))
		starts := parallel.PackIndices(p, func(j int) bool {
			return j == 0 || colKeys[j] != colKeys[j-1]
		})
		parallel.ForGrain(len(starts), 8, func(b int) {
			lo := starts[b]
			hi := p
			if b+1 < len(starts) {
				hi = starts[b+1]
			}
			var total int64
			for j := lo; j < hi; j++ {
				en := h[idx[j]]
				total += s.legacySign(i, en.Item) * en.Freq
			}
			row[colKeys[lo]] += total
		})
	})
}

// Query returns the median-of-rows point estimate for item. It is
// unbiased; |Query(e) - f_e| <= ε·‖f‖₂ with probability >= 1-δ.
func (s *Sketch) Query(item uint64) int64 {
	ests := make([]int64, s.d)
	if s.scheme == SchemeDerived {
		g1, g2 := s.base.Base(item)
		sw := s.base.SignWord(g1, g2)
		for i := 0; i < s.d; i++ {
			ests[i] = signFromWord(sw, i) * s.rows[i][s.base.Row(g1, g2, i)]
		}
	} else {
		for i := 0; i < s.d; i++ {
			ests[i] = s.legacySign(i, item) * s.rows[i][s.cols[i].HashAliased(item)]
		}
	}
	sort.Slice(ests, func(a, b int) bool { return ests[a] < ests[b] })
	mid := s.d / 2
	if s.d%2 == 1 {
		return ests[mid]
	}
	return (ests[mid-1] + ests[mid]) / 2
}

// SpaceWords estimates the footprint in 64-bit words.
func (s *Sketch) SpaceWords() int { return s.d*s.w + 5*s.d + 4 }
