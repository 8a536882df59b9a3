package cms

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomItems(seed int64, n int, universe int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(rng.Intn(universe))
	}
	return items
}

// TestSubtractUndoesMerge: the sketches are linear, so Merge(o) then
// Subtract(o) restores every cell and the total, and the merged cells
// are those of one sketch fed both streams.
func TestSubtractUndoesMerge(t *testing.T) {
	a, b, both := New(0.01, 0.01, 5), New(0.01, 0.01, 5), New(0.01, 0.01, 5)
	itemsA, itemsB := randomItems(1, 5000, 3000), randomItems(2, 7000, 3000)
	a.ProcessBatch(itemsA)
	b.ProcessBatch(itemsB)
	both.ProcessBatch(itemsA)
	both.ProcessBatch(itemsB)
	before := a.State()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.State().Cells, both.State().Cells; !reflect.DeepEqual(got, want) {
		t.Fatal("merged cells differ from the sketch of both streams")
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), before) {
		t.Fatal("Merge then Subtract did not restore the sketch")
	}
	if err := a.Subtract(New(0.02, 0.01, 5)); err == nil || !reflect.DeepEqual(a.State(), before) {
		t.Fatalf("mismatched Subtract: err %v, or the sketch changed", err)
	}
}

func TestRangeSubtractUndoesMerge(t *testing.T) {
	a, b := NewRange(12, 0.05, 0.05, 3), NewRange(12, 0.05, 0.05, 3)
	a.ProcessBatch(randomItems(3, 4000, 1<<12))
	b.ProcessBatch(randomItems(4, 4000, 1<<12))
	before := a.State()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Subtract(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), before) {
		t.Fatal("Merge then Subtract did not restore the range sketch")
	}
	if err := a.Merge(NewRange(12, 0.05, 0.05, 4)); err == nil || !reflect.DeepEqual(a.State(), before) {
		t.Fatalf("mismatched Merge: err %v, or the range sketch changed", err)
	}
}
