package cms

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func exactFreqs(items []uint64) map[uint64]int64 {
	f := make(map[uint64]int64)
	for _, it := range items {
		f[it]++
	}
	return f
}

func TestDims(t *testing.T) {
	s := New(0.01, 0.01, 1)
	if s.Width() < 271 || s.Width() > 273 {
		t.Fatalf("Width = %d want ~272", s.Width())
	}
	if s.Depth() != 5 { // ceil(ln 100) = 5
		t.Fatalf("Depth = %d want 5", s.Depth())
	}
}

func TestNeverUndercounts(t *testing.T) {
	s := New(0.05, 0.01, 7)
	rng := rand.New(rand.NewSource(1))
	items := make([]uint64, 20000)
	for i := range items {
		items[i] = uint64(rng.Intn(1000))
	}
	s.ProcessBatch(items)
	f := exactFreqs(items)
	for it, fe := range f {
		if got := s.Query(it); got < fe {
			t.Fatalf("item %d: query %d < true %d", it, got, fe)
		}
	}
}

func TestErrorBound(t *testing.T) {
	eps := 0.01
	s := New(eps, 0.001, 3)
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16)
	var items []uint64
	for i := 0; i < 100000; i++ {
		items = append(items, zipf.Uint64())
	}
	s.ProcessBatch(items)
	f := exactFreqs(items)
	m := float64(s.TotalCount())
	violations := 0
	for it, fe := range f {
		if float64(s.Query(it)-fe) > eps*m {
			violations++
		}
	}
	// Each query violates with probability <= δ=0.001; allow generous
	// slack over the expectation.
	if violations > len(f)/100+2 {
		t.Fatalf("%d/%d queries exceeded εm", violations, len(f))
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	// The parallel minibatch path must produce the exact same sketch state
	// as sequential updates (same hash functions, same additions).
	rng := rand.New(rand.NewSource(5))
	items := make([]uint64, 30000)
	for i := range items {
		items[i] = uint64(rng.Intn(300))
	}
	a := NewWithDims(4, 100, 11)
	b := NewWithDims(4, 100, 11)
	a.ProcessBatch(items)
	for _, it := range items {
		b.Update(it, 1)
	}
	if a.TotalCount() != b.TotalCount() {
		t.Fatalf("TotalCount %d != %d", a.TotalCount(), b.TotalCount())
	}
	for i := 0; i < a.d; i++ {
		for j := 0; j < a.w; j++ {
			if a.rows[i][j] != b.rows[i][j] {
				t.Fatalf("cell [%d][%d]: %d != %d", i, j, a.rows[i][j], b.rows[i][j])
			}
		}
	}
}

func TestSmallBatchFastPath(t *testing.T) {
	a := NewWithDims(3, 50, 9)
	b := NewWithDims(3, 50, 9)
	items := []uint64{1, 2, 3, 1, 1, 2}
	a.ProcessBatch(items)
	for _, it := range items {
		b.Update(it, 1)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			if a.rows[i][j] != b.rows[i][j] {
				t.Fatalf("cell [%d][%d] mismatch", i, j)
			}
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	s := New(0.1, 0.1, 1)
	s.ProcessBatch(nil)
	if s.TotalCount() != 0 {
		t.Fatal("empty batch changed total")
	}
	if q := s.Query(42); q != 0 {
		t.Fatalf("empty sketch Query = %d", q)
	}
}

func TestWeightedUpdate(t *testing.T) {
	s := NewWithDims(3, 64, 2)
	s.Update(7, 100)
	s.Update(8, 5)
	if q := s.Query(7); q < 100 {
		t.Fatalf("Query(7) = %d want >= 100", q)
	}
	if s.TotalCount() != 105 {
		t.Fatalf("TotalCount = %d", s.TotalCount())
	}
}

func TestParamPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0.1, 1) },
		func() { New(0.1, 0, 1) },
		func() { New(0.1, 1, 1) },
		func() { NewWithDims(0, 5, 1) },
		func() { NewWithDims(5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSpaceWords(t *testing.T) {
	s := NewWithDims(4, 100, 1)
	if sw := s.SpaceWords(); sw < 400 || sw > 450 {
		t.Fatalf("SpaceWords = %d want ~416", sw)
	}
}

// linearKinds are the two sketches built on table, behind the surface
// the state and allocation tests need.
var linearKinds = []struct {
	name      string
	new       func(d, w int, seed int64) linearSketch
	fromState func(State) (linearSketch, error)
}{
	{"count-min",
		func(d, w int, seed int64) linearSketch { return NewWithDims(d, w, seed) },
		func(st State) (linearSketch, error) { return FromState(st) }},
	{"count-sketch",
		func(d, w int, seed int64) linearSketch { return NewCountSketchWithDims(d, w, seed) },
		func(st State) (linearSketch, error) { return CountSketchFromState(st) }},
}

type linearSketch interface {
	ProcessBatch([]uint64)
	Update(item uint64, count int64)
	Query(item uint64) int64
	State() State
}

func TestSchemeRoundTrip(t *testing.T) {
	for _, k := range linearKinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.new(3, 256, 7)
			s.Update(42, 5)
			st := s.State()
			if st.Scheme != 1 {
				t.Fatalf("State.Scheme = %d, want 1", st.Scheme)
			}
			r, err := k.fromState(st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.State(), st) || r.Query(42) != s.Query(42) {
				t.Fatalf("round trip: query %d want %d", r.Query(42), s.Query(42))
			}
		})
	}
}

func TestCloneKeepsScheme(t *testing.T) {
	s := NewWithDims(3, 128, 5)
	s.Update(9, 2)
	c := s.Clone()
	if c.State().Scheme != 1 || !reflect.DeepEqual(c.State(), s.State()) || c.Query(9) != s.Query(9) {
		t.Fatal("clone changed scheme or cells")
	}
	if err := c.Merge(s); err != nil {
		t.Fatalf("merge of clone failed: %v", err)
	}
}

func TestFromStateRejectsUnknownScheme(t *testing.T) {
	for _, k := range linearKinds {
		t.Run(k.name, func(t *testing.T) {
			st := k.new(2, 64, 1).State()
			st.Scheme = 7
			if _, err := k.fromState(st); err == nil || !strings.Contains(err.Error(), "unknown hash scheme 7") {
				t.Fatalf("FromState on scheme 7: err %v", err)
			}
		})
	}
}

// TestUntaggedCheckpointRejected: a checkpoint written before the Scheme
// tag existed gob-decodes it as 0. Its cells were addressed by a hash
// family this package no longer has, so every restore path must refuse
// it with the error that names scheme 0.
func TestUntaggedCheckpointRejected(t *testing.T) {
	untagged := struct {
		D, W              int
		M, HashSeed, Seed int64
		Cells             []int64
	}{D: 2, W: 8, M: 3, HashSeed: 99, Seed: 100, Cells: make([]int64, 16)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(untagged); err != nil {
		t.Fatal(err)
	}
	var st State
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Scheme != 0 {
		t.Fatalf("untagged checkpoint decoded Scheme=%d, want 0", st.Scheme)
	}
	for _, k := range linearKinds {
		t.Run(k.name, func(t *testing.T) {
			if _, err := k.fromState(st); !errors.Is(err, errSchemeZero) || !strings.Contains(err.Error(), "hash scheme 0") {
				t.Fatalf("FromState on scheme 0: err %v", err)
			}
		})
	}
	t.Run("range", func(t *testing.T) {
		rs := NewRange(3, 0.5, 0.5, 1).State()
		rs.Levels[2] = st
		if _, err := RangeFromState(rs); !errors.Is(err, errSchemeZero) {
			t.Fatalf("RangeFromState with a scheme-0 level: err %v", err)
		}
	})
}

func TestDerivedBatchSteadyStateAllocs(t *testing.T) {
	// One warmed sketch ingests an 8192-key batch with exactly two
	// allocations, the fixed fork-join bookkeeping of the parallel
	// primitives; nothing grows with the batch. A change that moves the
	// count moves the pin, in either direction.
	rng := rand.New(rand.NewSource(13))
	items := make([]uint64, 8192)
	for i := range items {
		items[i] = uint64(rng.Intn(4000))
	}
	for _, k := range linearKinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.new(5, 1<<14, 42)
			s.ProcessBatch(items) // warm the scratch
			allocs := testing.AllocsPerRun(10, func() { s.ProcessBatch(items) })
			if allocs != 2 {
				t.Fatalf("batch path allocates %.0f objects per batch, pinned at 2", allocs)
			}
		})
	}
}
