package hist

import "testing"

// FuzzBuild checks the parallel histogram against a map on arbitrary
// small-universe item streams (bytes = items, so collisions abound), and
// the resident Builder plus the dyadic roll-up (SortByItem, Halve)
// against re-histogramming item>>l at every level of a byte's universe.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 1, 2, 3}, int64(7))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), int64(42))
	f.Add([]byte{0, 0, 0}, int64(3))                    // one entry, no bits to sort by
	f.Add([]byte{254, 255, 255, 128, 127, 1}, int64(9)) // neighbours that merge at different levels
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		items := make([]uint64, len(data))
		want := make(map[uint64]int64)
		for i, b := range data {
			items[i] = uint64(b)
			want[uint64(b)]++
		}
		got := make(map[uint64]int64)
		for _, e := range Build(items, seed) {
			if _, dup := got[e.Item]; dup {
				t.Fatalf("item %d reported twice", e.Item)
			}
			got[e.Item] = e.Freq
		}
		if len(got) != len(want) {
			t.Fatalf("distinct %d want %d", len(got), len(want))
		}
		for it, fr := range want {
			if got[it] != fr {
				t.Fatalf("item %d: %d want %d", it, got[it], fr)
			}
		}
		var b Builder
		h := b.Build(items, seed)
		checkAgainstRef(t, items, h)
		checkLevels(t, items, h, 8)
	})
}
