package streamagg

import (
	"testing"

	"repro/internal/workload"
)

func TestSlidingTopK(t *testing.T) {
	s, err := NewSlidingFreqEstimator(5000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.HeavyMix(21, 20000, []uint64{1, 2, 3}, []float64{0.4, 0.2, 0.1}, 1<<20)
	for _, b := range workload.Batches(stream, 1000) {
		s.ProcessBatch(b)
	}
	top := s.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	if top[0].Item != 1 || top[1].Item != 2 || top[2].Item != 3 {
		t.Fatalf("TopK order wrong: %+v", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Count < top[i].Count {
			t.Fatal("TopK not sorted by count")
		}
	}
	// k larger than tracked items returns everything.
	all := s.TopK(1 << 20)
	if len(all) < 3 || len(all) > s.TrackedItems() {
		t.Fatalf("TopK(huge) returned %d of %d tracked", len(all), s.TrackedItems())
	}
}
