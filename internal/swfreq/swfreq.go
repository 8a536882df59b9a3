// Package swfreq implements parallel sliding-window frequency estimation
// and heavy hitters (Section 5.3, Theorem 5.4): for a window of size n
// and error ε, it maintains per-item space-bounded block counters so that
// every item's frequency in the window is estimated within [f_e - εn, f_e].
//
// The paper reaches Theorem 5.4 in three steps. The basic algorithm
// (Theorem 5.5) keeps one (∞, n/S)-SBBC per item and never retires one,
// so its space grows with the distinct items of the whole stream. The
// space-efficient algorithm (Algorithm 2, Theorem 5.8) adds a
// Misra-Gries-style pruning after each minibatch, so at most
// S = ⌈8/ε⌉ counters survive, but still builds a CSS for every item it
// tracks or sees. The work-efficient algorithm, the one implemented here,
// keeps that pruning and predicts the post-batch counts from the
// histogram plus shrunk counter values *before* building any CSS, so sift
// (Lemma 5.9) only materializes the ≤ S surviving items' CSSs:
// O(ε⁻¹ + µ) work and O(ε⁻¹) space, at the price of an O(ε⁻¹) depth term
// in sift's bucketing.
package swfreq

import (
	"repro/internal/css"
	"repro/internal/hist"
	"repro/internal/parallel"
	"repro/internal/sbbc"
)

// Estimator tracks approximate item frequencies over a sliding window.
type Estimator struct {
	n     int64
	eps   float64
	capS  int   // pruning capacity S
	gamma int64 // SBBC block size
	adj   int64 // worst-case overcount subtracted at query time
	t     int64 // global stream length observed
	seed  int64
	ctr   map[uint64]*sbbc.Counter
}

// New creates an estimator for window size n >= 1 and epsilon in (0, 1].
func New(n int64, epsilon float64) *Estimator {
	if n < 1 {
		panic("swfreq: window size must be >= 1")
	}
	if epsilon <= 0 || epsilon > 1 {
		panic("swfreq: epsilon must be in (0, 1]")
	}
	e := &Estimator{
		n:    n,
		eps:  epsilon,
		ctr:  make(map[uint64]*sbbc.Counter),
		seed: 0x5357,
		// S = ⌈8/ε⌉, λ = εn/4, γ = max(1, ⌊λ/2⌋) = max(1, ⌊εn/8⌋).
		capS:  int(8/epsilon) + 1,
		gamma: max(1, int64(epsilon*float64(n)/8)),
	}
	if e.gamma == 1 {
		// εn < 16 ⇒ n < 16/ε: counters are exact and at most 2n
		// candidates can ever be live, so raising the pruning capacity
		// to 2n+1 disables pruning (whose per-batch error unit would
		// blow the tiny εn budget) while keeping space O(1/ε).
		if alt := int(2*n) + 1; alt > e.capS {
			e.capS = alt
		}
	} else {
		// The snapshot may overcount by up to 2γ; a γ=1 counter is exact
		// and subtracts nothing.
		e.adj = 2 * e.gamma
	}
	return e
}

// N returns the window size.
func (e *Estimator) N() int64 { return e.n }

// Epsilon returns the error parameter.
func (e *Estimator) Epsilon() float64 { return e.eps }

// StreamLen returns the number of items observed so far.
func (e *Estimator) StreamLen() int64 { return e.t }

// WindowLen returns min(StreamLen, n): the number of items actually in
// the current window.
func (e *Estimator) WindowLen() int64 {
	if e.t < e.n {
		return e.t
	}
	return e.n
}

// NumCounters returns the number of live per-item counters.
func (e *Estimator) NumCounters() int { return len(e.ctr) }

// TrackedItemIDs returns the ids of all items with live counters, in
// arbitrary order.
func (e *Estimator) TrackedItemIDs() []uint64 {
	out := make([]uint64, 0, len(e.ctr))
	for item := range e.ctr {
		out = append(out, item)
	}
	return out
}

// ProcessBatch ingests a minibatch of items.
func (e *Estimator) ProcessBatch(items []uint64) {
	if len(items) == 0 {
		return
	}
	e.t += int64(len(items))
	// WLOG assumption from Section 5.3.2: a minibatch at least as large as
	// the window resets the state — only its last n items matter, and
	// starting over clears all accumulated error.
	if int64(len(items)) >= e.n {
		clear(e.ctr)
		items = items[int64(len(items))-e.n:]
	}
	// Theorem 5.4: predict survivors from the histogram and shrunk
	// counter values, sift only their CSSs, then advance + decrement the
	// survivors and delete everything else.
	e.seed++
	h := hist.Build(items, e.seed)
	mu := int64(len(items))

	// predict: candidate set = items of T ∪ B with combined counts
	// c_e = freq in T + counter value shrunk to the last n-µ positions.
	type cand struct {
		item uint64
		c    int64
	}
	cands := make([]cand, 0, len(h)+len(e.ctr))
	inHist := make(map[uint64]bool, len(h))
	for _, en := range h {
		c := en.Freq
		if ctr, ok := e.ctr[en.Item]; ok {
			c += ctr.ValueForWindow(e.n - mu)
		}
		cands = append(cands, cand{en.Item, c})
		inHist[en.Item] = true
	}
	for item, ctr := range e.ctr {
		if !inHist[item] {
			cands = append(cands, cand{item, ctr.ValueForWindow(e.n - mu)})
		}
	}
	phi := int64(0)
	if len(cands) > e.capS {
		vals := parallel.Map(len(cands), func(i int) int64 { return cands[i].c })
		phi = parallel.KthLargest(vals, e.capS+1)
	}
	// K = predicted survivors.
	kept := parallel.Pack(cands, func(i int) bool { return cands[i].c > phi })
	kIndex := make(map[uint64]int32, len(kept))
	kItems := make([]uint64, len(kept))
	for i, c := range kept {
		kIndex[c.item] = int32(i)
		kItems[i] = c.item
	}

	segs := sift(items, kIndex, len(kItems))

	// Delete non-survivors before advancing (they are gone regardless).
	for item := range e.ctr {
		if _, ok := kIndex[item]; !ok {
			delete(e.ctr, item)
		}
	}
	counters := e.ensureCounters(kItems)
	parallel.ForGrain(len(kItems), 1, func(i int) {
		counters[i].Advance(segs[i])
		counters[i].Decrement(phi)
	})
	// A counter that reached 0 carries no information (an absent counter
	// estimates 0).
	for i, item := range kItems {
		if counters[i].Value() == 0 {
			delete(e.ctr, item)
		}
	}
}

// ensureCounters returns the counter for each item, creating missing ones
// (map mutation is sequential; the per-counter work is parallelized by
// the caller).
func (e *Estimator) ensureCounters(items []uint64) []*sbbc.Counter {
	out := make([]*sbbc.Counter, len(items))
	for i, item := range items {
		c, ok := e.ctr[item]
		if !ok {
			c = sbbc.New(e.n, 0, e.gamma) // σ unbounded: the (∞, λ)-SBBC
			e.ctr[item] = c
		}
		out[i] = c
	}
	return out
}

// Estimate returns the frequency estimate for item in the current
// window: f_e - εn <= Estimate(item) <= f_e.
func (e *Estimator) Estimate(item uint64) int64 {
	c, ok := e.ctr[item]
	if !ok {
		return 0
	}
	v := c.Value() - e.adj
	if v < 0 {
		return 0
	}
	return v
}

// HeavyHitters returns every item whose estimate reaches (φ-ε)·W, where
// W is the current window length — the Section 5 reduction: all items
// with f_e >= φW are reported, and no item with f_e < (φ-2ε)W can appear.
func (e *Estimator) HeavyHitters(phi float64) []uint64 {
	thr := (phi - e.eps) * float64(e.WindowLen())
	var out []uint64
	for item := range e.ctr {
		if float64(e.Estimate(item)) >= thr {
			out = append(out, item)
		}
	}
	return out
}

// SpaceWords estimates the persistent memory footprint in 64-bit words.
func (e *Estimator) SpaceWords() int {
	total := 8
	for _, c := range e.ctr {
		total += c.SpaceWords() + 2 // counter + map entry
	}
	return total
}

// sift builds, for every item in the index set kIndex (with contiguous
// indices 0..nK-1), the CSS of its indicator sequence within items
// (Lemma 5.9). Items not in kIndex are filtered out; the stable counting
// sort groups the surviving positions by item while preserving stream
// order. O(µ + |K|) work; the bucketing has an O(|K|) span term, the
// deliberate depth-for-work tradeoff the paper makes.
func sift(items []uint64, kIndex map[uint64]int32, nK int) []css.Segment {
	mu := len(items)
	segs := make([]css.Segment, nK)
	if nK == 0 {
		return segs
	}
	// Tag each position with its item's K-index (or -1).
	tags := make([]int32, mu)
	parallel.ForGrain(mu, parallel.DefaultGrain, func(i int) {
		if k, ok := kIndex[items[i]]; ok {
			tags[i] = k
		} else {
			tags[i] = -1
		}
	})
	pos := parallel.PackIndices(mu, func(i int) bool { return tags[i] >= 0 })
	keys := make([]uint32, len(pos))
	vals := make([]int32, len(pos))
	parallel.ForGrain(len(pos), parallel.DefaultGrain, func(j int) {
		keys[j] = uint32(tags[pos[j]])
		vals[j] = int32(pos[j])
	})
	parallel.CountingSortPairs(keys, vals, nK)
	// Segment boundaries per item.
	starts := parallel.PackIndices(len(keys), func(i int) bool {
		return i == 0 || keys[i] != keys[i-1]
	})
	parallel.ForGrain(nK, 8, func(k int) {
		segs[k] = css.Segment{Len: int64(mu)}
	})
	parallel.ForGrain(len(starts), 8, func(b int) {
		lo := starts[b]
		hi := len(keys)
		if b+1 < len(starts) {
			hi = starts[b+1]
		}
		ones := make([]int64, hi-lo)
		for j := lo; j < hi; j++ {
			ones[j-lo] = int64(vals[j]) + 1 // 1-based positions
		}
		segs[keys[lo]] = css.Segment{Len: int64(mu), Ones: ones}
	})
	return segs
}
