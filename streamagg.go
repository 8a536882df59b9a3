// Package streamagg implements parallel streaming frequency-based
// aggregates — the algorithms of Tangwongsan, Tirthapura and Wu,
// "Parallel Streaming Frequency-Based Aggregates" (SPAA 2014) — for both
// the infinite-window and the count-based sliding-window settings.
//
// The library follows the paper's discretized-stream model: the input
// arrives as minibatches; each minibatch is ingested with internally
// parallel, linear-work, polylog-depth algorithms operating on a single
// shared data structure (no per-processor replicas, no merge step), and
// queries are answered at minibatch boundaries.
//
// Aggregates:
//
//   - BasicCounter — ε-approximate count of 1s over a sliding window
//     (Theorem 4.1), built on space-bounded block counters (Section 3).
//   - WindowSum — ε-approximate sliding-window sum of bounded
//     non-negative integers (Theorem 4.2).
//   - FreqEstimator — infinite-window frequency estimation and heavy
//     hitters with the parallel Misra-Gries summary (Theorem 5.2).
//   - SlidingFreqEstimator — sliding-window frequency estimation and
//     heavy hitters with the work-efficient algorithm (Theorem 5.4).
//   - CountMin / CountMinRange — the parallel count-min sketch
//     (Theorem 6.1) with point, range and quantile queries.
//   - CountSketch — the unbiased turnstile sketch of [CCFC02].
//
// Every aggregate satisfies the Aggregate interface (plus narrower query
// interfaces such as PointEstimator and HeavyHitterSource) and is built
// with the functional-options constructor New(kind, opts...); Pipeline
// fans one minibatch stream out to many named aggregates concurrently
// and checkpoints them atomically. The mergeable kinds (FreqEstimator,
// CountMin, CountMinRange, CountSketch) additionally implement Merger
// and can be hash-partitioned across independent shards with
// WithShards / NewSharded — the Sharded wrapper ingests shards
// concurrently and answers queries per-shard or through an on-demand
// merged snapshot.
//
// For serving, Ingestor turns an unbounded stream of single updates
// into well-sized minibatches behind an asynchronous bounded queue with
// selectable backpressure (WithBatchSize, WithMaxLatency, WithQueueCap,
// WithBackpressure), and the repro/server package exposes a Pipeline
// over HTTP/JSON with atomic checkpoint/restore.
//
// Concurrency model. Minibatch ingestion is internally parallel and
// lock-free (fork-join phases with disjoint writes). Externally, each
// structure serializes updates against queries with a reader-writer
// gate, so any number of concurrent queries may interleave with updates,
// matching the paper's "updates and queries can be interleaved" model.
//
// Items are uint64 identifiers; HashString adapts string keys.
package streamagg

import (
	"errors"
	"hash/fnv"

	"repro/internal/parallel"
)

// ErrBadParam reports an invalid constructor parameter.
var ErrBadParam = errors.New("streamagg: invalid parameter")

// ErrIncompatibleMerge reports a Merge between aggregates that cannot be
// combined: different kinds, different dimensions/parameters, different
// hash seeds, or an aggregate merged with itself.
var ErrIncompatibleMerge = errors.New("streamagg: incompatible merge")

// SetParallelism overrides the number of workers used by all parallel
// primitives in this library (default: GOMAXPROCS). p <= 0 restores the
// default. It returns the previous setting. Intended for benchmarking
// speedup curves; changing it mid-ingestion yields an unspecified mix of
// parallelism but never affects correctness.
func SetParallelism(p int) int { return parallel.SetWorkers(p) }

// Parallelism reports the current worker count.
func Parallelism() int { return parallel.Workers() }

// HashString maps a string key to a uint64 item identifier (FNV-1a).
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
