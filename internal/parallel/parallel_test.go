package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}

func TestSetWorkers(t *testing.T) {
	old := SetWorkers(3)
	defer SetWorkers(old)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset", got)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		seen := make([]int32, n)
		ForGrain(n, 8, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{1, 5, 1000, 12345} {
		var total int64
		Blocks(n, 16, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty block [%d,%d)", lo, hi)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != int64(n) {
			t.Fatalf("n=%d: blocks covered %d elements", n, total)
		}
	}
}

func TestBlocksZero(t *testing.T) {
	called := false
	Blocks(0, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Blocks called f for n=0")
	}
}

func TestDo(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.AddInt32(&a, 1) },
		func() { atomic.AddInt32(&b, 1) },
		func() { atomic.AddInt32(&c, 1) },
	)
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("Do ran thunks %d/%d/%d times", a, b, c)
	}
	Do() // must not panic
}

func TestReduceNonZeroIdentity(t *testing.T) {
	// product with identity 1 — catches implementations that assume the
	// identity is the zero value.
	got := Reduce(10, 2, 1,
		func(a, b int) int { return a * b },
		func(lo, hi int) int {
			p := 1
			for i := lo; i < hi; i++ {
				p *= 2
			}
			return p
		})
	if got != 1024 {
		t.Fatalf("Reduce product = %d want 1024", got)
	}
}

func TestCount(t *testing.T) {
	n := 100000
	got := Count(n, func(i int) bool { return i%3 == 0 })
	want := (n + 2) / 3
	if got != want {
		t.Fatalf("Count = %d want %d", got, want)
	}
}

func TestScanExclusive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 1000, 65537} {
		xs := make([]int64, n)
		ref := make([]int64, n)
		var run int64
		for i := range xs {
			xs[i] = int64(i%13 + 1)
			ref[i] = run
			run += xs[i]
		}
		total := ScanExclusive(xs)
		if total != run {
			t.Fatalf("n=%d: total=%d want %d", n, total, run)
		}
		for i := range xs {
			if xs[i] != ref[i] {
				t.Fatalf("n=%d: xs[%d]=%d want %d", n, i, xs[i], ref[i])
			}
		}
	}
}

func TestPackIndices(t *testing.T) {
	for _, n := range []int{0, 1, 100, 33333} {
		idx := PackIndices(n, func(i int) bool { return i%5 == 2 })
		want := 0
		for i := 0; i < n; i++ {
			if i%5 == 2 {
				if want >= len(idx) || idx[want] != i {
					t.Fatalf("n=%d: missing or misplaced index %d", n, i)
				}
				want++
			}
		}
		if len(idx) != want {
			t.Fatalf("n=%d: got %d indices want %d", n, len(idx), want)
		}
	}
}

func TestPack(t *testing.T) {
	xs := make([]string, 1000)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = "keep"
		} else {
			xs[i] = "drop"
		}
	}
	out := Pack(xs, func(i int) bool { return xs[i] == "keep" })
	if len(out) != 500 {
		t.Fatalf("Pack kept %d want 500", len(out))
	}
	for _, s := range out {
		if s != "keep" {
			t.Fatal("Pack kept a dropped element")
		}
	}
}

func TestMapCopyFill(t *testing.T) {
	m := Map(1000, func(i int) int { return i * i })
	for i, v := range m {
		if v != i*i {
			t.Fatalf("Map[%d]=%d", i, v)
		}
	}
}

func TestCountingSortPairsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20000
	keyRange := 37
	keys := make([]uint32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = uint32(rng.Intn(keyRange))
		vals[i] = int32(i)
	}
	orig := append([]uint32(nil), keys...)
	CountingSortPairs(keys, vals, keyRange)
	checkStableSorted(t, keys, vals, orig)
}

func TestRadixSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, keyRange := range []uint32{2, 255, 256, 65536, 1 << 20, 1 << 31} {
		n := 30000
		keys := make([]uint32, n)
		vals := make([]int32, n)
		for i := range keys {
			keys[i] = uint32(rng.Int63()) % keyRange
			vals[i] = int32(i)
		}
		orig := append([]uint32(nil), keys...)
		RadixSortPairs(keys, vals, keyRange)
		checkStableSorted(t, keys, vals, orig)
	}
}

// checkStableSorted verifies keys are non-decreasing, vals is a
// permutation consistent with the original keys, and ties preserve
// original order (stability).
func checkStableSorted(t *testing.T, keys []uint32, vals []int32, orig []uint32) {
	t.Helper()
	seen := make([]bool, len(vals))
	for i := range keys {
		if i > 0 && keys[i-1] > keys[i] {
			t.Fatalf("keys not sorted at %d: %d > %d", i, keys[i-1], keys[i])
		}
		if i > 0 && keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			t.Fatalf("unstable at %d: key %d positions %d,%d", i, keys[i], vals[i-1], vals[i])
		}
		v := vals[i]
		if v < 0 || int(v) >= len(orig) || seen[v] {
			t.Fatalf("vals not a permutation at %d (v=%d)", i, v)
		}
		seen[v] = true
		if orig[v] != keys[i] {
			t.Fatalf("vals[%d]=%d carries key %d want %d", i, v, orig[v], keys[i])
		}
	}
}

func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 100, 5000, 100000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(500)) // many duplicates
		}
		sorted := append([]int64(nil), xs...)
		sortInt64(sorted)
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			cp := append([]int64(nil), xs...)
			if got := SelectKth(cp, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: got %d want %d", n, k, got, sorted[k])
			}
		}
	}
}

func TestKthLargest(t *testing.T) {
	xs := []int64{9, 1, 8, 2, 7, 3}
	if got := KthLargest(append([]int64(nil), xs...), 1); got != 9 {
		t.Fatalf("KthLargest(1)=%d", got)
	}
	if got := KthLargest(append([]int64(nil), xs...), 3); got != 7 {
		t.Fatalf("KthLargest(3)=%d", got)
	}
	if got := KthLargest(append([]int64(nil), xs...), 6); got != 1 {
		t.Fatalf("KthLargest(6)=%d", got)
	}
}

func TestSelectKthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SelectKth out-of-range did not panic")
		}
	}()
	SelectKth([]int64{1, 2}, 2)
}

func sortInt64(xs []int64) {
	// simple insertion-free sort via sort.Slice replacement without import
	// churn: use a counting-free quicksort from the stdlib.
	quickSortInt64(xs)
}

func quickSortInt64(xs []int64) {
	if len(xs) < 2 {
		return
	}
	p := xs[len(xs)/2]
	lo, hi := 0, len(xs)-1
	for lo <= hi {
		for xs[lo] < p {
			lo++
		}
		for xs[hi] > p {
			hi--
		}
		if lo <= hi {
			xs[lo], xs[hi] = xs[hi], xs[lo]
			lo++
			hi--
		}
	}
	quickSortInt64(xs[:hi+1])
	quickSortInt64(xs[lo:])
}
