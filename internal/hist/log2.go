package hist

// Log2 is a lock-free base-2 exponential histogram: bucket i counts
// observed values whose bit length is i, i.e. values in [2^(i-1), 2^i)
// (bucket 0 counts zeros). It is the observability-side sibling of this
// package's frequency histograms: where Build/Combine histogram the
// *stream* per the paper's cost model, Log2 histograms the *system* —
// batch sizes in items, latencies in nanoseconds — in the same
// per-minibatch units the paper states its work/depth bounds in.
// Observe is two atomic adds, so it is safe on ingest hot paths shared
// by many goroutines without taking any lock.

import (
	"math/bits"
	"sync/atomic"
)

// Log2NumBuckets is the number of buckets: one per possible bit length
// of a uint64 (0 through 64).
const Log2NumBuckets = 65

// Log2 is ready to use at its zero value.
type Log2 struct {
	buckets [Log2NumBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Log2) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(int64(v))
}

// Log2UpperBound is the largest value bucket i holds: 2^i - 1.
func Log2UpperBound(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << i) - 1
}

// Snapshot copies the per-bucket counts, trimmed after the last
// non-empty bucket, and returns them with the total count and the sum
// of observed values. Concurrent Observe calls may or may not be
// included; the snapshot is not required to be a consistent cut.
func (h *Log2) Snapshot() (buckets []int64, count, sum int64) {
	top := 0
	var all [Log2NumBuckets]int64
	for i := range all {
		all[i] = h.buckets[i].Load()
		count += all[i]
		if all[i] != 0 {
			top = i + 1
		}
	}
	return append([]int64(nil), all[:top]...), count, h.sum.Load()
}
