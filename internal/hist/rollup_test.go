package hist

import (
	"math/rand"
	"testing"
)

// checkLevels drives SortByItem and Halve the way a dyadic stack does and
// requires, at every level l in [0, levels], exactly the histogram of
// item>>l, in increasing item order with no item repeated.
func checkLevels(t *testing.T, items []uint64, h []Entry, levels int) {
	t.Helper()
	before := append([]Entry(nil), h...)
	cur, next := SortByItem(h, nil, nil)
	for l := 0; l <= levels; l++ {
		if l > 0 {
			cur, next = Halve(next[:0], cur), cur
		}
		want := make(map[uint64]int64)
		for _, it := range items {
			want[it>>uint(l)]++
		}
		if len(cur) != len(want) {
			t.Fatalf("level %d: %d entries, want %d", l, len(cur), len(want))
		}
		for i, e := range cur {
			if i > 0 && cur[i-1].Item >= e.Item {
				t.Fatalf("level %d: items out of order at %d (%d then %d)", l, i, cur[i-1].Item, e.Item)
			}
			if want[e.Item] != e.Freq {
				t.Fatalf("level %d item %d: freq %d want %d", l, e.Item, e.Freq, want[e.Item])
			}
		}
	}
	for i := range before {
		if h[i] != before[i] {
			t.Fatalf("source histogram modified at %d", i)
		}
	}
}

func TestRollupMatchesRehistogramming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b Builder
	for _, tc := range []struct {
		name  string
		n     int
		bits  int
		draw  func() uint64
		extra []uint64
	}{
		{"one-bit", 500, 1, func() uint64 { return uint64(rng.Intn(2)) }, nil},
		{"20-bit-zipfish", 8192, 20, func() uint64 { return uint64(rng.ExpFloat64()*3000) & (1<<20 - 1) }, nil},
		{"63-bit", 4096, 63, func() uint64 { return rng.Uint64() >> 1 }, []uint64{0, 1<<63 - 1, 1 << 62}},
		// Items past the universe are shifted like any other.
		{"out-of-universe", 300, 8, func() uint64 { return rng.Uint64() }, []uint64{1<<64 - 1}},
		{"single", 1, 20, func() uint64 { return 12345 }, nil},
		{"all-zero", 64, 20, func() uint64 { return 0 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := append([]uint64(nil), tc.extra...)
			for len(items) < tc.n {
				items = append(items, tc.draw())
			}
			checkLevels(t, items, b.Build(items, 1), tc.bits)
			checkLevels(t, items, Build(items, 1), tc.bits) // any entry order
		})
	}
}

func TestSortByItemEmpty(t *testing.T) {
	sorted, spare := SortByItem(nil, nil, nil)
	if len(sorted) != 0 || len(Halve(spare[:0], sorted)) != 0 {
		t.Fatal("empty histogram produced entries")
	}
}

func TestRollupZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := make([]uint64, 8192)
	for i := range items {
		items[i] = uint64(rng.Intn(1 << 18))
	}
	var b Builder
	h := b.Build(items, 1)
	var bufs [2][]Entry
	roll := func() {
		cur, next := SortByItem(h, bufs[0], bufs[1])
		for l := 1; l <= 20; l++ {
			cur, next = Halve(next[:0], cur), cur
		}
		bufs[0], bufs[1] = cur, next
	}
	roll() // grow the buffers
	if allocs := testing.AllocsPerRun(20, roll); allocs != 0 {
		t.Fatalf("steady-state roll-up allocates %.1f times per batch, want 0", allocs)
	}
}
