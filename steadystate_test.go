package streamagg

import (
	"testing"

	"repro/internal/workload"
)

// TestSteadyStateSpace: memory stops growing once a structure is full.
// THEOREMS.md's space rows fill each structure once; this test keeps
// feeding it. Every kind runs an all-distinct stream and a zipf stream
// for 64 windows' worth (64 fills of n items for the kinds without a
// window), in batches of 1 024, and SpaceWords at the end must stay
// within 1.5× its value after the first n items. A kind that keeps state
// for items long gone from its window or summary grows with the stream
// and fails here; the sliding-window algorithm that kept one counter per
// item it had ever seen read 64× on the all-distinct stream.
//
// The streams are stationary. WindowSum's values are drawn from the same
// range throughout: values that keep growing fill more bit slices, which
// is space the bound allows, not a leak.
func TestSteadyStateSpace(t *testing.T) {
	const (
		n      = 4096
		eps    = 0.05
		r      = 1 << 10 // WindowSum values lie in [0, r)
		fills  = 64
		batch  = 1024
		growth = 1.5
	)
	kinds := []struct {
		kind Kind
		opts []Option
	}{
		{KindBasicCounter, []Option{WithWindow(n), WithEpsilon(eps)}},
		{KindWindowSum, []Option{WithWindow(n), WithEpsilon(eps), WithMaxValue(r - 1)}},
		{KindFreq, []Option{WithEpsilon(eps)}},
		{KindSlidingFreq, []Option{WithWindow(n), WithEpsilon(eps)}},
		{KindCountMin, []Option{WithEpsilon(eps)}},
		{KindCountMinRange, []Option{WithEpsilon(eps), WithUniverseBits(20)}},
		{KindCountSketch, []Option{WithEpsilon(eps)}},
	}
	streams := []struct {
		name string
		gen  func(kind Kind) []uint64
	}{
		{"all-distinct", func(kind Kind) []uint64 {
			if kind == KindWindowSum {
				return workload.Uniform(61, fills*n, r)
			}
			return workload.Distinct(1, fills*n)
		}},
		{"zipf", func(kind Kind) []uint64 {
			if kind == KindWindowSum {
				return workload.Zipf(62, fills*n, 1.1, r-1)
			}
			return workload.Zipf(62, fills*n, 1.1, 1<<18)
		}},
	}
	for _, k := range kinds {
		for _, s := range streams {
			t.Run(string(k.kind)+"/"+s.name, func(t *testing.T) {
				agg, err := New(k.kind, k.opts...)
				if err != nil {
					t.Fatal(err)
				}
				first := 0
				for _, b := range workload.Batches(s.gen(k.kind), batch) {
					if err := agg.ProcessBatch(b); err != nil {
						t.Fatal(err)
					}
					if agg.StreamLen() == n {
						first = agg.SpaceWords()
					}
				}
				last := agg.SpaceWords()
				ratio := float64(last) / float64(first)
				t.Logf("SpaceWords %d after %d items, %d after %d: %.2f×", first, n, last, agg.StreamLen(), ratio)
				if first == 0 || ratio > growth {
					t.Fatalf("SpaceWords grew from %d to %d over a stationary stream (%.2f×, limit %g×)", first, last, ratio, growth)
				}
			})
		}
	}
}
