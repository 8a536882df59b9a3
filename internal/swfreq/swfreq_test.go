package swfreq

import (
	"math/rand"
	"testing"

	"repro/internal/css"
)

// slidingRef tracks exact frequencies over the last n items.
type slidingRef struct {
	n     int64
	items []uint64
}

func newSlidingRef(n int64) *slidingRef { return &slidingRef{n: n} }

func (r *slidingRef) add(items []uint64) { r.items = append(r.items, items...) }

func (r *slidingRef) freqs() map[uint64]int64 {
	start := int64(len(r.items)) - r.n
	if start < 0 {
		start = 0
	}
	f := make(map[uint64]int64)
	for _, it := range r.items[start:] {
		f[it]++
	}
	return f
}

func checkWindowGuarantee(t *testing.T, e *Estimator, ref *slidingRef) {
	t.Helper()
	f := ref.freqs()
	bound := e.Epsilon() * float64(e.N())
	for it, fe := range f {
		est := e.Estimate(it)
		if est > fe {
			t.Fatalf("item %d overestimated: %d > %d", it, est, fe)
		}
		if float64(fe-est) > bound+1e-9 {
			t.Fatalf("item %d underestimated: est %d, true %d, bound εn=%g",
				it, est, fe, bound)
		}
	}
	// Items absent from the window must estimate within the same bound
	// (their true frequency is 0, so only est <= f_e matters: est must be 0
	// ... up to counters whose stale content hasn't slid out; the guarantee
	// est <= f_e + 0 means est must be 0 for absent items).
	for _, probe := range []uint64{1 << 60, 1<<60 + 1} {
		if _, live := f[probe]; !live {
			if est := e.Estimate(probe); est != 0 {
				t.Fatalf("absent item estimated %d", est)
			}
		}
	}
}

func TestGuaranteeUniformAllVariants(t *testing.T) {
	n := int64(2048)
	eps := 0.05
	e := New(n, eps)
	ref := newSlidingRef(n)
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 40; batch++ {
		items := make([]uint64, rng.Intn(400)+1)
		for i := range items {
			items[i] = uint64(rng.Intn(100))
		}
		e.ProcessBatch(items)
		ref.add(items)
		checkWindowGuarantee(t, e, ref)
	}
}

func TestGuaranteeZipfAllVariants(t *testing.T) {
	n := int64(4096)
	eps := 0.02
	e := New(n, eps)
	ref := newSlidingRef(n)
	rng := rand.New(rand.NewSource(14))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<14)
	for batch := 0; batch < 25; batch++ {
		items := make([]uint64, 512)
		for i := range items {
			items[i] = zipf.Uint64()
		}
		e.ProcessBatch(items)
		ref.add(items)
	}
	checkWindowGuarantee(t, e, ref)
}

func TestItemsSlideOut(t *testing.T) {
	n := int64(100)
	e := New(n, 0.5)
	heavy := make([]uint64, 100)
	for i := range heavy {
		heavy[i] = 7
	}
	e.ProcessBatch(heavy)
	if est := e.Estimate(7); est < 50 {
		t.Fatalf("heavy item est %d < 50 right after burst", est)
	}
	// Slide the burst fully out with two window-lengths of other items.
	for k := 0; k < 4; k++ {
		other := make([]uint64, 50)
		for i := range other {
			other[i] = uint64(1000 + k*50 + i)
		}
		e.ProcessBatch(other)
	}
	if est := e.Estimate(7); est != 0 {
		t.Fatalf("slid-out item still estimates %d", est)
	}
}

func TestBatchLargerThanWindowResets(t *testing.T) {
	n := int64(64)
	e := New(n, 0.25)
	// Pre-load junk.
	junk := make([]uint64, 30)
	for i := range junk {
		junk[i] = 5
	}
	e.ProcessBatch(junk)
	// One huge batch: only its last n items matter.
	big := make([]uint64, 500)
	for i := range big {
		if i >= 500-int(n) {
			big[i] = 9
		} else {
			big[i] = 5
		}
	}
	e.ProcessBatch(big)
	ref := newSlidingRef(n)
	ref.add(junk)
	ref.add(big)
	checkWindowGuarantee(t, e, ref)
	if est := e.Estimate(9); float64(est) < float64(n)-0.25*float64(n) {
		t.Fatalf("after reset, est(9) = %d want >= %g", est, 0.75*float64(n))
	}
}

func TestSpaceBoundSpaceEfficientVariants(t *testing.T) {
	// Pruning keeps at most S = ⌈8/ε⌉+1 counters even under an
	// all-distinct stream.
	n := int64(1 << 14)
	eps := 0.01
	e := New(n, eps)
	next := uint64(0)
	for batch := 0; batch < 20; batch++ {
		items := make([]uint64, 1024)
		for i := range items {
			items[i] = next // all distinct forever
			next++
		}
		e.ProcessBatch(items)
		if nc := e.NumCounters(); nc > int(8/eps)+2 {
			t.Fatalf("%d counters exceed S=%d", nc, int(8/eps)+1)
		}
	}
}

func TestHeavyHittersSlidingWindow(t *testing.T) {
	n := int64(2000)
	eps, phi := 0.05, 0.2
	e := New(n, eps)
	ref := newSlidingRef(n)
	rng := rand.New(rand.NewSource(17))
	for batch := 0; batch < 20; batch++ {
		items := make([]uint64, 250)
		for i := range items {
			if rng.Float64() < 0.4 {
				items[i] = 1 // persistent heavy hitter
			} else {
				items[i] = uint64(rng.Intn(100000)) + 100
			}
		}
		e.ProcessBatch(items)
		ref.add(items)
	}
	hh := e.HeavyHitters(phi)
	got := make(map[uint64]bool)
	for _, h := range hh {
		got[h] = true
	}
	f := ref.freqs()
	w := float64(e.WindowLen())
	for it, fe := range f {
		if float64(fe) >= phi*w && !got[it] {
			t.Fatalf("missed heavy hitter %d (f=%d, φW=%g)", it, fe, phi*w)
		}
	}
	for h := range got {
		if float64(f[h]) < (phi-2*eps)*w {
			t.Fatalf("false positive %d (f=%d)", h, f[h])
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	e := New(100, 0.1)
	e.ProcessBatch(nil)
	if e.StreamLen() != 0 || e.NumCounters() != 0 {
		t.Fatal("empty batch changed state")
	}
}

func TestTinyWindow(t *testing.T) {
	e := New(4, 0.5)
	ref := newSlidingRef(4)
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 50; batch++ {
		items := make([]uint64, rng.Intn(3)+1)
		for i := range items {
			items[i] = uint64(rng.Intn(3))
		}
		e.ProcessBatch(items)
		ref.add(items)
		checkWindowGuarantee(t, e, ref)
	}
}

func TestSmallEpsilonTimesN(t *testing.T) {
	// εn < 16 triggers the exact-counter (γ=1) regime with pruning
	// disabled; estimates must be exact.
	n := int64(100)
	eps := 0.05 // εn = 5
	e := New(n, eps)
	ref := newSlidingRef(n)
	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 40; batch++ {
		items := make([]uint64, rng.Intn(30)+1)
		for i := range items {
			items[i] = uint64(rng.Intn(20))
		}
		e.ProcessBatch(items)
		ref.add(items)
		f := ref.freqs()
		for it, fe := range f {
			if est := e.Estimate(it); est != fe {
				t.Fatalf("γ=1 regime not exact: item %d est %d true %d",
					it, est, fe)
			}
		}
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0.1) },
		func() { New(10, 0) },
		func() { New(10, 2) },
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

func TestSiftMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		mu := rng.Intn(2000) + 1
		items := make([]uint64, mu)
		for i := range items {
			items[i] = uint64(rng.Intn(20))
		}
		// K = even items only.
		kIndex := make(map[uint64]int32)
		var kItems []uint64
		for v := uint64(0); v < 20; v += 2 {
			kIndex[v] = int32(len(kItems))
			kItems = append(kItems, v)
		}
		segs := sift(items, kIndex, len(kItems))
		for ki, item := range kItems {
			want := css.FromFunc(mu, func(j int) bool { return items[j] == item })
			got := segs[ki]
			if got.Len != want.Len || len(got.Ones) != len(want.Ones) {
				t.Fatalf("item %d: got %d ones want %d", item, len(got.Ones), len(want.Ones))
			}
			for j := range want.Ones {
				if got.Ones[j] != want.Ones[j] {
					t.Fatalf("item %d: ones[%d] = %d want %d", item, j, got.Ones[j], want.Ones[j])
				}
			}
			if !got.Valid() {
				t.Fatalf("item %d: invalid CSS", item)
			}
		}
	}
}

func TestAccessors(t *testing.T) {
	e := New(50, 0.2)
	if e.N() != 50 || e.Epsilon() != 0.2 {
		t.Fatal("accessors wrong")
	}
	e.ProcessBatch([]uint64{1, 2, 3})
	if e.StreamLen() != 3 || e.WindowLen() != 3 {
		t.Fatalf("StreamLen=%d WindowLen=%d", e.StreamLen(), e.WindowLen())
	}
	e.ProcessBatch(make([]uint64, 100))
	if e.WindowLen() != 50 {
		t.Fatalf("WindowLen=%d want 50", e.WindowLen())
	}
	if e.SpaceWords() <= 0 {
		t.Fatal("SpaceWords <= 0")
	}
}
