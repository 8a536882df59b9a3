package countsketch

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSubtractUndoesMerge: Merge(o) then Subtract(o) restores every cell
// and the total; a mismatched argument is rejected with s unchanged.
func TestSubtractUndoesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(2000))
		}
		return out
	}
	a, b := New(0.1, 0.05, 5), New(0.1, 0.05, 5)
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
	if err := a.Subtract(New(0.1, 0.05, 6)); err == nil || !reflect.DeepEqual(a.State(), before) {
		t.Fatalf("mismatched Subtract: err %v, or the sketch changed", err)
	}
}
