package swfreq

import (
	"math/rand"
	"testing"
)

// TestChurnStress drives the estimator through an adversarial schedule —
// alternating floods of one item, all-distinct washes, batch sizes from
// 1 to window-crossing — while continuously checking the window
// guarantee. This exercises counter creation/deletion churn, pruning
// with ties, decrement clamping, and the reset path together.
func TestChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	n := int64(1000)
	eps := 0.1
	e := New(n, eps)
	ref := newSlidingRef(n)
	rng := rand.New(rand.NewSource(203))
	next := uint64(1 << 20)
	for step := 0; step < 400; step++ {
		var batch []uint64
		switch step % 5 {
		case 0: // flood of a single item
			batch = make([]uint64, rng.Intn(300)+1)
			hot := uint64(step % 7)
			for i := range batch {
				batch[i] = hot
			}
		case 1: // all distinct
			batch = make([]uint64, rng.Intn(300)+1)
			for i := range batch {
				batch[i] = next
				next++
			}
		case 2: // tiny batch
			batch = []uint64{uint64(rng.Intn(5))}
		case 3: // window-crossing batch
			batch = make([]uint64, int(n)+rng.Intn(500))
			for i := range batch {
				batch[i] = uint64(rng.Intn(20))
			}
		default: // mixed
			batch = make([]uint64, rng.Intn(200)+1)
			for i := range batch {
				if rng.Float64() < 0.5 {
					batch[i] = uint64(rng.Intn(10))
				} else {
					batch[i] = next
					next++
				}
			}
		}
		e.ProcessBatch(batch)
		ref.add(batch)
		if step%7 == 0 {
			checkWindowGuarantee(t, e, ref)
		}
	}
	checkWindowGuarantee(t, e, ref)
}

// TestManyEpsilonWindowCombos sweeps the parameter grid, including the
// γ=1 exact regime boundaries, with a fixed adversarial stream.
func TestManyEpsilonWindowCombos(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewSource(77))
	stream := make([][]uint64, 60)
	for b := range stream {
		stream[b] = make([]uint64, rng.Intn(250)+1)
		for i := range stream[b] {
			stream[b][i] = uint64(rng.Intn(40))
		}
	}
	for _, n := range []int64{1, 15, 127, 128, 129, 2048} {
		for _, eps := range []float64{1, 0.5, 0.126, 0.125, 0.05} {
			e := New(n, eps)
			ref := newSlidingRef(n)
			for _, batch := range stream {
				e.ProcessBatch(batch)
				ref.add(batch)
			}
			f := ref.freqs()
			bound := eps * float64(n)
			for it, fe := range f {
				est := e.Estimate(it)
				if est > fe || float64(fe-est) > bound+1e-9 {
					t.Fatalf("n=%d ε=%g item %d: est %d true %d",
						n, eps, it, est, fe)
				}
			}
		}
	}
}
