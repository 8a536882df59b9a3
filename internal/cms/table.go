package cms

import (
	"errors"
	"fmt"

	"repro/internal/hashfn"
	"repro/internal/hist"
	"repro/internal/parallel"
)

// table is the d×w counter array both linear kinds are built on: the
// cells, the derived-row hash family drawn from hashSeed, the ingested
// total and the batch scratch. Sketch and CountSketch embed it and add
// only what differs between them: how a histogram entry lands in a row
// and how a query reads the item's cells back.
type table struct {
	d, w     int
	cells    []int64   // row-major d×w
	rows     [][]int64 // views of cells, one per row
	base     hashfn.Derived
	m        int64
	hashSeed int64 // constructor seed: determines the hash family
	seed     int64 // rolling seed for per-batch histogram hashing

	// Per-instance batch scratch, reused across batches (the caller's
	// write gate serializes them): the histogram builder plus the
	// per-entry base-hash pairs shared by all rows.
	hb     hist.Builder
	g1, g2 []uint64
}

func newTable(d, w int, seed int64) table {
	if d < 1 || w < 1 {
		panic("cms: dimensions must be >= 1")
	}
	t := table{d: d, w: w, cells: make([]int64, d*w), base: hashfn.NewDerived(uint64(w), seed), hashSeed: seed, seed: seed}
	t.rows = make([][]int64, d)
	for i := range t.rows {
		t.rows[i] = t.cells[i*w : (i+1)*w]
	}
	return t
}

// Depth returns d, the number of rows.
func (t *table) Depth() int { return t.d }

// Width returns w, the number of columns.
func (t *table) Width() int { return t.w }

// TotalCount returns m, the net weight ingested.
func (t *table) TotalCount() int64 { return t.m }

// SpaceWords estimates the memory footprint in 64-bit words: the cells,
// the hash family's three words, and d, w, m and the seed.
func (t *table) SpaceWords() int { return t.d*t.w + 3 + 4 }

// kernel is the per-kind half of a histogram fold: hashEntries fills the
// per-entry hash scratch for entries [lo, hi), and foldRows adds the
// whole histogram into rows [lo, hi), whose only writer the caller is.
type kernel interface {
	hashEntries(h []hist.Entry, lo, hi int)
	foldRows(h []hist.Entry, lo, hi int)
}

// grow resizes *buf to n, reallocating only when capacity grew.
func grow(buf *[]uint64, n int) {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
}

// addHistogram folds a histogram into the table through k: one base hash
// per entry (into reused scratch), then each row folded by a single
// owner goroutine — the CRCW-combining single-writer property with zero
// allocations in steady state. h is only read.
func (t *table) addHistogram(h []hist.Entry, k kernel) {
	p := len(h)
	if p == 0 {
		return
	}
	grow(&t.g1, p)
	grow(&t.g2, p)
	if p*t.d < parallel.MinFork {
		// Too few cell updates to pay for a fork-join (the upper levels
		// of a dyadic stack carry a handful of entries each).
		k.hashEntries(h, 0, p)
		k.foldRows(h, 0, t.d)
	} else {
		parallel.Blocks(p, parallel.DefaultGrain, func(lo, hi int) { k.hashEntries(h, lo, hi) })
		parallel.Blocks(t.d, 1, func(lo, hi int) { k.foldRows(h, lo, hi) })
	}
	for _, en := range h {
		t.m += en.Freq
	}
}

// State is the gob form of either linear kind in checkpoints written
// before the framed format, which the legacy reader still restores. The
// hash family is not serialized; it is redrawn deterministically from
// HashSeed.
type State struct {
	D, W     int
	M        int64
	HashSeed int64
	Seed     int64
	// Scheme tags the row addressing. Only schemeDerived restores:
	// checkpoints from before the tag existed decode it as 0, and their
	// cells were addressed by a hash family this package no longer has.
	Scheme int
	Cells  []int64 // row-major d×w
}

// schemeDerived is the Kirsch–Mitzenmacher derived-row addressing every
// sketch uses.
const schemeDerived = 1

// State captures the table in its legacy form.
func (t *table) State() State {
	cells := append([]int64(nil), t.cells...)
	return State{D: t.d, W: t.w, M: t.m, HashSeed: t.hashSeed, Seed: t.seed, Scheme: schemeDerived, Cells: cells}
}

// maxStateDim bounds each serialized dimension so the d·w product cannot
// overflow int and the cells-length check below runs before any d·w-sized
// allocation (a corrupted checkpoint must error, never panic or OOM).
const maxStateDim = 1 << 28

// errSchemeZero rejects checkpoints written before the derived-row
// scheme.
var errSchemeZero = errors.New("cms: hash scheme 0 (a checkpoint older than derived-row hashing) is no longer supported")

// fromState reconstructs a table from its legacy form, validating
// invariants.
func fromState(st State) (table, error) {
	if st.D < 1 || st.W < 1 || st.D > maxStateDim || st.W > maxStateDim {
		return table{}, fmt.Errorf("cms: bad state dims %dx%d", st.D, st.W)
	}
	if int64(len(st.Cells)) != int64(st.D)*int64(st.W) {
		return table{}, fmt.Errorf("cms: state has %d cells, want %d", len(st.Cells), int64(st.D)*int64(st.W))
	}
	switch st.Scheme {
	case schemeDerived:
	case 0:
		return table{}, errSchemeZero
	default:
		return table{}, fmt.Errorf("cms: unknown hash scheme %d", st.Scheme)
	}
	t := newTable(st.D, st.W, st.HashSeed)
	t.m, t.seed = st.M, st.Seed
	copy(t.cells, st.Cells)
	return t, nil
}

// compatible reports whether o can merge into t: equal dimensions and
// hash seed. Merging tables drawn with different dimensions or hash
// functions would silently corrupt estimates.
func (t *table) compatible(o *table) error {
	if t.d != o.d || t.w != o.w {
		return fmt.Errorf("cms: merge dimension mismatch (%dx%d vs %dx%d)", t.d, t.w, o.d, o.w)
	}
	if t.hashSeed != o.hashSeed {
		return fmt.Errorf("cms: merge hash seed mismatch (%d vs %d)", t.hashSeed, o.hashSeed)
	}
	return nil
}

// add folds sign·o into t cell-wise, the one loop behind every Merge and
// Subtract. Both kinds are linear, so compatible tables of streams A and
// B sum to the table of A ++ B exactly. Incompatible tables are rejected
// and t is left unchanged.
func (t *table) add(o *table, sign int64) error {
	if err := t.compatible(o); err != nil {
		return err
	}
	parallel.ForGrain(t.d, 1, func(i int) {
		row, orow := t.rows[i], o.rows[i]
		for j := range row {
			row[j] += sign * orow[j]
		}
	})
	t.m += sign * o.m
	return nil
}

// clone returns a deep copy of the cells and counters, with fresh scratch.
func (t *table) clone() table {
	c := newTable(t.d, t.w, t.hashSeed)
	c.m, c.seed = t.m, t.seed
	copy(c.cells, t.cells)
	return c
}
