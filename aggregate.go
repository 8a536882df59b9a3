package streamagg

import "encoding"

// Kind identifies one of the library's aggregate algorithms. The string
// values double as the checkpoint envelope tags, so a Kind mismatch is
// detected when restoring.
type Kind string

// The seven public aggregate kinds.
const (
	// KindBasicCounter — ε-approximate count of 1s over a sliding
	// window (Theorem 4.1).
	KindBasicCounter Kind = "basic-counter"
	// KindWindowSum — ε-approximate sliding-window sum of bounded
	// non-negative integers (Theorem 4.2).
	KindWindowSum Kind = "window-sum"
	// KindFreq — infinite-window frequency estimation with the parallel
	// Misra-Gries summary (Theorem 5.2).
	KindFreq Kind = "freq-estimator"
	// KindSlidingFreq — sliding-window frequency estimation with the
	// work-efficient algorithm (Theorem 5.4).
	KindSlidingFreq Kind = "sliding-freq-estimator"
	// KindCountMin — the parallel count-min sketch (Theorem 6.1).
	KindCountMin Kind = "count-min"
	// KindCountMinRange — dyadic count-min stack for range counts and
	// quantiles.
	KindCountMinRange Kind = "count-min-range"
	// KindCountSketch — the Count-Sketch of [CCFC02], parallel-ingested
	// like CountMin.
	KindCountSketch Kind = "count-sketch"
)

// Aggregate is the uniform surface every aggregate in this library
// presents, following the paper's discretized-stream model: ingest a
// minibatch with a parallel linear-work algorithm, answer queries at
// batch boundaries, checkpoint between batches.
//
// ProcessBatch ingests one minibatch of items. For item-stream
// aggregates the elements are item identifiers; BasicCounter interprets
// each nonzero element as a 1-bit, and WindowSum interprets elements as
// values (rejecting any value above its configured bound). Only
// WindowSum can return a non-nil error.
//
// StreamLen reports the number of stream elements ingested through
// ProcessBatch (or ProcessBits) so far; it survives checkpoint/restore.
// SpaceWords reports the memory footprint in 64-bit words. MarshalBinary
// called between two batches captures the full state; UnmarshalBinary
// (valid on a zero value) restores an aggregate that continues exactly
// where the original left off.
type Aggregate interface {
	Kind() Kind
	ProcessBatch(items []uint64) error
	StreamLen() int64
	SpaceWords() int
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// PointEstimator answers per-item frequency queries (FreqEstimator,
// SlidingFreqEstimator, CountMin, CountSketch).
type PointEstimator interface {
	Estimate(item uint64) int64
}

// ScalarEstimator answers single-value window queries (BasicCounter,
// WindowSum).
type ScalarEstimator interface {
	Estimate() int64
}

// HeavyHitterSource enumerates frequent items (FreqEstimator,
// SlidingFreqEstimator).
type HeavyHitterSource interface {
	HeavyHitters(phi float64) []ItemCount
	TopK(k int) []ItemCount
}

// RangeEstimator answers range-count and quantile queries
// (CountMinRange).
type RangeEstimator interface {
	RangeCount(lo, hi uint64) int64
	Quantile(q float64) uint64
}

// TotalCounter reports the exact total ingested weight m (CountMin,
// CountMinRange). Unlike the ε-approximate estimates, TotalCount is a
// tracked counter, so it merges exactly — Pipeline.Value falls back to
// it for kinds without a window estimate.
type TotalCounter interface {
	TotalCount() int64
}

// Merger is the capability interface for aggregates that can absorb
// another instance of the same kind — the mergeable-summaries property
// [ACH+13] that sharded and distributed deployments build on. After
// a.Merge(b), a summarizes the concatenation of both input streams:
//
//   - FreqEstimator merges with the Misra-Gries merge, preserving
//     f_e - ε(m_a+m_b) <= Estimate(e) <= f_e;
//   - CountMin and CountMinRange merge cell-wise (both operands must
//     share parameters and seed), preserving the εm bound at the
//     combined m;
//   - CountSketch merges cell-wise, with merged error bounded by
//     ε(‖f_a‖₂+‖f_b‖₂).
//
// Merge returns an error wrapping ErrIncompatibleMerge when the operands
// differ in kind, parameters, or hash seed, or when an aggregate is
// merged with itself; the receiver is unchanged on error. The argument
// is read in place, under its own query gate while the receiver's write
// gate is held, and is not modified; so concurrent mutual merges
// (a.Merge(b) while b.Merge(a)) are not supported.
type Merger interface {
	Merge(other Aggregate) error
}

// Compile-time conformance: every public aggregate is an Aggregate.
var (
	_ Aggregate = (*BasicCounter)(nil)
	_ Aggregate = (*WindowSum)(nil)
	_ Aggregate = (*FreqEstimator)(nil)
	_ Aggregate = (*SlidingFreqEstimator)(nil)
	_ Aggregate = (*CountMin)(nil)
	_ Aggregate = (*CountMinRange)(nil)
	_ Aggregate = (*CountSketch)(nil)
)

// Compile-time conformance to the narrower query interfaces.
var (
	_ ScalarEstimator   = (*BasicCounter)(nil)
	_ ScalarEstimator   = (*WindowSum)(nil)
	_ PointEstimator    = (*FreqEstimator)(nil)
	_ PointEstimator    = (*SlidingFreqEstimator)(nil)
	_ PointEstimator    = (*CountMin)(nil)
	_ PointEstimator    = (*CountSketch)(nil)
	_ HeavyHitterSource = (*FreqEstimator)(nil)
	_ HeavyHitterSource = (*SlidingFreqEstimator)(nil)
	_ RangeEstimator    = (*CountMinRange)(nil)
)

// Compile-time conformance: the mergeable kinds and the sharded wrapper.
var (
	_ Merger = (*FreqEstimator)(nil)
	_ Merger = (*CountMin)(nil)
	_ Merger = (*CountMinRange)(nil)
	_ Merger = (*CountSketch)(nil)
	_ Merger = (*Sharded)(nil)

	_ TotalCounter = (*CountMin)(nil)
	_ TotalCounter = (*CountMinRange)(nil)

	_ Aggregate         = (*Sharded)(nil)
	_ PointEstimator    = (*Sharded)(nil)
	_ HeavyHitterSource = (*Sharded)(nil)
	_ RangeEstimator    = (*Sharded)(nil)
)
