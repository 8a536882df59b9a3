package cms

import (
	"math/rand"
	"testing"
)

func TestRangeCountExactOnSmallUniverse(t *testing.T) {
	// With a wide sketch relative to the universe, counts are near-exact;
	// range counts must cover every interval correctly (never undercount).
	r := NewRange(6, 0.001, 0.001, 3) // universe [0, 64)
	counts := make([]int64, 64)
	rng := rand.New(rand.NewSource(1))
	var items []uint64
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(64))
		counts[v]++
		items = append(items, v)
	}
	r.ProcessBatch(items)
	for trial := 0; trial < 200; trial++ {
		lo := uint64(rng.Intn(64))
		hi := lo + uint64(rng.Intn(64-int(lo)))
		var want int64
		for v := lo; v <= hi; v++ {
			want += counts[v]
		}
		got := r.RangeCount(lo, hi)
		if got < want {
			t.Fatalf("[%d,%d]: got %d < true %d", lo, hi, got, want)
		}
		slack := int64(float64(r.TotalCount())*0.001*14) + 8
		if got > want+slack {
			t.Fatalf("[%d,%d]: got %d overshoots true %d by more than %d",
				lo, hi, got, want, slack)
		}
	}
}

func TestRangeCountDegenerate(t *testing.T) {
	r := NewRange(8, 0.01, 0.01, 5)
	if got := r.RangeCount(10, 5); got != 0 {
		t.Fatalf("inverted range = %d", got)
	}
	if got := r.RangeCount(3, 3); got != 0 {
		t.Fatalf("empty sketch point range = %d", got)
	}
	r.Update(3, 7)
	if got := r.RangeCount(3, 3); got < 7 {
		t.Fatalf("point range = %d want >= 7", got)
	}
	if got := r.RangeCount(0, 255); got < 7 {
		t.Fatalf("full range = %d want >= 7", got)
	}
}

func TestQuantile(t *testing.T) {
	r := NewRange(10, 0.001, 0.001, 9) // universe [0, 1024)
	var items []uint64
	for v := uint64(0); v < 1000; v++ {
		items = append(items, v) // uniform 0..999, one each
	}
	r.ProcessBatch(items)
	med := r.Quantile(0.5)
	if med < 400 || med > 600 {
		t.Fatalf("median = %d want ~500", med)
	}
	q9 := r.Quantile(0.9)
	if q9 < 800 || q9 > 1000 {
		t.Fatalf("p90 = %d want ~900", q9)
	}
	if lo := r.Quantile(0); lo > 100 {
		t.Fatalf("q0 = %d", lo)
	}
	if hi := r.Quantile(1); hi < 900 {
		t.Fatalf("q1 = %d", hi)
	}
}

func TestRangeUpdateVsBatch(t *testing.T) {
	a := NewRange(8, 0.01, 0.01, 13)
	b := NewRange(8, 0.01, 0.01, 13)
	rng := rand.New(rand.NewSource(4))
	items := make([]uint64, 5000)
	for i := range items {
		items[i] = uint64(rng.Intn(256))
	}
	a.ProcessBatch(items)
	for _, it := range items {
		b.Update(it, 1)
	}
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(256))
		hi := lo + uint64(rng.Intn(256-int(lo)))
		if a.RangeCount(lo, hi) != b.RangeCount(lo, hi) {
			t.Fatalf("[%d,%d]: batch %d != sequential %d",
				lo, hi, a.RangeCount(lo, hi), b.RangeCount(lo, hi))
		}
	}
}

func TestRangePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRange(0, 0.1, 0.1, 1) },
		func() { NewRange(64, 0.1, 0.1, 1) },
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

func TestRangeAccessors(t *testing.T) {
	r := NewRange(8, 0.1, 0.1, 1)
	if r.Bits() != 8 {
		t.Fatalf("Bits = %d", r.Bits())
	}
	if r.SpaceWords() <= 0 {
		t.Fatal("SpaceWords <= 0")
	}
	r.Update(1, 3)
	if r.TotalCount() != 3 {
		t.Fatalf("TotalCount = %d", r.TotalCount())
	}
}

// TestRangeRollupMatchesPerLevelHistograms pins the dyadic roll-up to the
// formulation it replaced: level l is a count-min sketch, seeded
// seed+977·l, of the stream item>>l, each level histogramming the raw
// batch for itself. Cells must agree exactly at every level, for the
// shift edge cases (a 1-bit universe, the demo's 20 bits, the 63-bit
// maximum where the top level shifts everything to 0) and across the
// sort-based fallback for batches too large for the resident table.
func TestRangeRollupMatchesPerLevelHistograms(t *testing.T) {
	const eps, delta, seed = 0.01, 0.05, 11
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<18)
	for _, tc := range []struct {
		bits  int
		sizes []int
		draw  func() uint64
	}{
		{1, []int{0, 1, 63, 700}, func() uint64 { return uint64(rng.Intn(2)) }},
		{20, []int{0, 1, 63, 8192, 1<<17 + 1}, zipf.Uint64},
		{63, []int{1, 63, 2000}, func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }},
	} {
		r := NewRange(tc.bits, eps, delta, seed)
		ref := make([]*Sketch, tc.bits+1)
		for l := range ref {
			ref[l] = New(eps, delta, seed+int64(l)*977)
		}
		for _, n := range tc.sizes {
			items := make([]uint64, n)
			for i := range items {
				items[i] = tc.draw()
			}
			r.ProcessBatch(items)
			shifted := make([]uint64, n)
			for l, s := range ref {
				for i, it := range items {
					shifted[i] = it >> uint(l)
				}
				s.ProcessBatch(shifted)
			}
		}
		for l, s := range ref {
			got, want := r.levels[l].State(), s.State()
			if got.M != want.M {
				t.Fatalf("bits=%d level %d: total %d want %d", tc.bits, l, got.M, want.M)
			}
			for c := range want.Cells {
				if got.Cells[c] != want.Cells[c] {
					t.Fatalf("bits=%d level %d cell %d: %d want %d", tc.bits, l, c, got.Cells[c], want.Cells[c])
				}
			}
		}
	}
}

func TestRangeProcessBatchZeroAllocSteadyState(t *testing.T) {
	r := NewRange(20, 0.01, 0.05, 3)
	rng := rand.New(rand.NewSource(4))
	items := make([]uint64, 8192)
	for i := range items {
		items[i] = uint64(rng.Intn(1 << 18))
	}
	r.ProcessBatch(items) // grow the builder table, roll-up buffers, row scratch
	allocs := testing.AllocsPerRun(10, func() { r.ProcessBatch(items) })
	// AllocsPerRun pins GOMAXPROCS to 1, so the row fork-joins run
	// inline; what is left is their closures, a few per level that is
	// large enough to fork.
	if perItem := allocs / float64(len(items)); perItem >= 0.01 {
		t.Fatalf("range sketch ingest allocates %.4f objects/item (%.0f/batch), want < 0.01", perItem, allocs)
	}
}
