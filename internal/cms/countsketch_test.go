package cms

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestCountSketchDims(t *testing.T) {
	s := NewCountSketch(0.1, 0.01, 1)
	if s.Width() != 300 {
		t.Fatalf("Width = %d want 300", s.Width())
	}
	if s.Depth() != 5 {
		t.Fatalf("Depth = %d want 5", s.Depth())
	}
}

func TestCountSketchBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := make([]uint64, 30000)
	for i := range items {
		items[i] = uint64(rng.Intn(500))
	}
	a := NewCountSketchWithDims(5, 128, 7)
	b := NewCountSketchWithDims(5, 128, 7)
	a.ProcessBatch(items)
	for _, it := range items {
		b.Update(it, 1)
	}
	if a.TotalCount() != b.TotalCount() {
		t.Fatalf("TotalCount %d != %d", a.TotalCount(), b.TotalCount())
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 128; j++ {
			if a.rows[i][j] != b.rows[i][j] {
				t.Fatalf("cell [%d][%d]: %d != %d", i, j, a.rows[i][j], b.rows[i][j])
			}
		}
	}
}

func TestCountSketchErrorBoundL2(t *testing.T) {
	eps, delta := 0.05, 0.01
	s := NewCountSketch(eps, delta, 3)
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.3, 1, 1<<14)
	exact := map[uint64]int64{}
	items := make([]uint64, 100000)
	for i := range items {
		items[i] = zipf.Uint64()
		exact[items[i]]++
	}
	s.ProcessBatch(items)
	var l2sq float64
	for _, f := range exact {
		l2sq += float64(f) * float64(f)
	}
	bound := eps * math.Sqrt(l2sq)
	bad := 0
	for it, fe := range exact {
		diff := float64(s.Query(it) - fe)
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			bad++
		}
	}
	if bad > len(exact)/50+2 {
		t.Fatalf("%d/%d queries beyond ε‖f‖₂", bad, len(exact))
	}
}

func TestCountSketchUnbiasedOnHeavyItem(t *testing.T) {
	// A heavy item's estimate should be close to truth (within a few
	// percent), not systematically above like count-min.
	s := NewCountSketch(0.02, 0.01, 9)
	rng := rand.New(rand.NewSource(4))
	items := make([]uint64, 50000)
	for i := range items {
		if i%4 == 0 {
			items[i] = 7
		} else {
			items[i] = rng.Uint64() % (1 << 16)
		}
	}
	s.ProcessBatch(items)
	got := s.Query(7)
	if got < 11000 || got > 14000 {
		t.Fatalf("heavy item estimate %d want ~12500", got)
	}
}

func TestCountSketchWeightedUpdateAndAccessors(t *testing.T) {
	s := NewCountSketchWithDims(3, 64, 1)
	s.Update(1, 10)
	s.Update(2, -3) // deletions are legal in count-sketch (turnstile)
	if s.TotalCount() != 7 {
		t.Fatalf("TotalCount %d", s.TotalCount())
	}
	if q := s.Query(1); q < 5 || q > 15 {
		t.Fatalf("Query(1) = %d want ~10", q)
	}
	if s.SpaceWords() < 3*64 {
		t.Fatal("SpaceWords too small")
	}
}

func TestCountSketchEmptyBatch(t *testing.T) {
	s := NewCountSketch(0.1, 0.1, 1)
	s.ProcessBatch(nil)
	if s.TotalCount() != 0 || s.Query(5) != 0 {
		t.Fatal("empty batch changed state")
	}
}

func TestCountSketchEvenDepthMedian(t *testing.T) {
	s := NewCountSketchWithDims(4, 64, 5)
	s.Update(3, 100)
	if q := s.Query(3); q < 50 || q > 150 {
		t.Fatalf("even-d median: %d", q)
	}
}

func TestCountSketchPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCountSketch(0, 0.1, 1) },
		func() { NewCountSketch(0.1, 0, 1) },
		func() { NewCountSketch(0.1, 1, 1) },
		func() { NewCountSketchWithDims(0, 1, 1) },
		func() { NewCountSketchWithDims(1, 0, 1) },
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

// TestCountSketchSubtractUndoesMerge: Merge(o) then Subtract(o)
// restores every cell and the total; a mismatched argument is rejected
// with s unchanged.
func TestCountSketchSubtractUndoesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(2000))
		}
		return out
	}
	a, b := NewCountSketch(0.1, 0.05, 5), NewCountSketch(0.1, 0.05, 5)
	a.ProcessBatch(items(5000))
	b.ProcessBatch(items(7000))
	before := a.State()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), before) {
		t.Fatal("Merge then Subtract did not restore the sketch")
	}
	if err := a.Subtract(NewCountSketch(0.1, 0.05, 6)); err == nil || !reflect.DeepEqual(a.State(), before) {
		t.Fatalf("mismatched Subtract: err %v, or the sketch changed", err)
	}
}

// TestCountSketchMedianMatchesSort: the insertion-sort median equals the
// sort-based one for every depth 1…9 (odd and even) over random rows, and
// for a depth past Query's stack buffer.
func TestCountSketchMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 40} {
		for trial := 0; trial < 200; trial++ {
			xs := make([]int64, d)
			for i := range xs {
				xs[i] = rng.Int63n(2001) - 1000
			}
			sorted := append([]int64(nil), xs...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			want := sorted[d/2]
			if d%2 == 0 {
				want = (sorted[d/2-1] + sorted[d/2]) / 2
			}
			if got := median(xs); got != want {
				t.Fatalf("d=%d: median %d, sort-based %d", d, got, want)
			}
		}
	}
	// Query itself, past the stack buffer, against the same reference.
	s := NewCountSketchWithDims(40, 64, 9)
	for i := uint64(0); i < 5000; i++ {
		s.Update(i%300, 1)
	}
	g1, g2 := s.base.Base(7)
	sw := s.base.SignWord(g1, g2)
	ests := make([]int64, s.d)
	for i, row := range s.rows {
		ests[i] = signFromWord(sw, i) * row[s.base.Row(g1, g2, i)]
	}
	sort.Slice(ests, func(a, b int) bool { return ests[a] < ests[b] })
	if got, want := s.Query(7), (ests[19]+ests[20])/2; got != want {
		t.Fatalf("d=40 Query = %d, sort-based median %d", got, want)
	}
}

// TestCountSketchQueryAllocs pins Query to zero allocations.
func TestCountSketchQueryAllocs(t *testing.T) {
	s := NewCountSketch(0.05, 0.001, 4) // d = 7
	s.ProcessBatch([]uint64{1, 2, 3, 3, 7, 7, 7})
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Query(7) }); allocs != 0 {
		t.Fatalf("Query allocates %.1f objects, want 0", allocs)
	}
}
