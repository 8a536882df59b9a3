package streamagg

// Sharded keyspace partitioning — the scaling axis orthogonal to the
// paper's intra-minibatch parallelism. A Sharded aggregate hash-splits
// every minibatch across S independent instances of one mergeable kind
// (disjoint keyspaces, no shared cells), ingests the shards concurrently
// on the shared worker budget, and answers queries either by routing /
// summing per shard or through an on-demand merged snapshot built with
// the Merger interface — the classic mergeable-summaries route [ACH+13].
//
// Only the infinite-window, keyspace-partitionable kinds can be sharded:
// KindFreq, KindCountMin, KindCountSketch, and KindCountMinRange. The
// sliding-window aggregates (BasicCounter, WindowSum, SlidingFreq) are
// excluded on principle, not implementation laziness: their count-based
// window is a property of the whole stream order, so a shard that sees
// only a hashed subsequence cannot reconstruct "the last n elements".
//
// Error bounds. Point queries route to the item's owner shard, whose
// sub-stream length m_i <= m, so every per-kind guarantee stated against
// εm holds verbatim. Merged snapshots inherit the mergeable-summaries
// bounds documented on Merger.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// KindSharded tags Sharded wrappers (and their checkpoint envelopes).
const KindSharded Kind = "sharded"

// maxShards bounds the shard count; beyond this the per-shard batches
// are too small to amortize anything.
const maxShards = 4096

// shardable lists the kinds whose keyspace can be hash-partitioned
// across independent shards; all of them implement Merger.
var shardable = map[Kind]bool{
	KindFreq:          true,
	KindCountMin:      true,
	KindCountSketch:   true,
	KindCountMinRange: true,
}

// Sharded hash-partitions one logical aggregate across S independent
// shard instances of a mergeable kind. It satisfies Aggregate plus every
// query interface its shard kind supports; querying a capability the
// shard kind lacks returns zero values (the Pipeline's keyed surface
// cannot distinguish capabilities through the wrapper). The zero value
// is ready for UnmarshalBinary only.
type Sharded struct {
	gate
	inner  Kind
	shards []Aggregate

	// Cached merged view of all shards, for the queries that need a
	// global summary (HeavyHitters, Quantile, Snapshot). Built lazily on
	// first use and reused until the next ingest or restore invalidates
	// it, so back-to-back global queries under read-heavy serving
	// traffic pay the S-way merge once instead of per call. snapMu
	// guards snap and is only acquired while gate.mu is held (read or
	// write), so invalidation (under the write lock) never races a
	// rebuild (under a read lock).
	snapMu sync.Mutex
	snap   Aggregate // nil when stale

	// Merge-cache effectiveness counters, exposed by the serving
	// layer's /metrics endpoint (MergeCacheStats). Atomics: bumped
	// under snapMu but read lock-free.
	snapHits   atomic.Int64
	snapMisses atomic.Int64

	// Per-instance partition scratch, reused across ProcessBatch calls
	// (which hold the gate's write lock), so steady-state ingest splits
	// the minibatch without allocating.
	part partScratch
}

// NewSharded creates a sharded aggregate: shards independent instances
// of kind (1 <= shards <= 4096), all built from the same options — and
// therefore the same hash seed, which keeps them mergeable.
func NewSharded(kind Kind, shards int, opts ...Option) (*Sharded, error) {
	a, err := New(kind, append(append([]Option{}, opts...), WithShards(shards))...)
	if err != nil {
		return nil, err
	}
	return a.(*Sharded), nil
}

// newSharded wraps s instances produced by mk. The caller (New) has
// already validated kind and s.
func newSharded(kind Kind, s int, mk func() Aggregate) *Sharded {
	shards := make([]Aggregate, s)
	for i := range shards {
		shards[i] = mk()
	}
	return &Sharded{inner: kind, shards: shards}
}

// Kind returns KindSharded. InnerKind reports what the shards are.
func (s *Sharded) Kind() Kind { return KindSharded }

// InnerKind returns the kind of the shard instances.
func (s *Sharded) InnerKind() (k Kind) {
	s.read(func() { k = s.inner })
	return k
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() (n int) {
	s.read(func() { n = len(s.shards) })
	return n
}

// shardIndex maps an item to its owner shard with a splitmix64-style
// finalizer — fixed (not seeded) so the partition survives
// checkpoint/restore and is independent of the shards' sketch hashes.
func shardIndex(item uint64, shards int) int {
	x := item
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// partScratch holds the reusable buffers of the counting-sort partition:
// per-item shard ids, the flattened chunks×shards count/offset matrices,
// the slice headers handed to the shards, and one backing array that all
// sub-batches are carved from. Owned by one Sharded instance and used
// under its write gate.
type partScratch struct {
	ids     []uint16
	counts  []int // chunks*shards, row-major by chunk
	offsets []int // chunks*shards, row-major by chunk
	totals  []int
	out     [][]uint64
	buf     []uint64 // backing storage for every shard's sub-batch
}

//agglint:hotpath
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// partition splits items into per-shard sub-batches, preserving stream
// order within each shard (a stable counting-sort scatter: per-chunk
// counts, prefix offsets, parallel scatter). The returned slices alias
// the scratch and are valid until the next call.
//
//agglint:hotpath
func (ps *partScratch) partition(items []uint64, shards int) [][]uint64 {
	n := len(items)
	if shards == 1 {
		if cap(ps.out) < 1 {
			ps.out = make([][]uint64, 1)
		}
		out := ps.out[:1]
		out[0] = items
		return out
	}
	chunks := parallel.Workers()
	if max := (n + 4095) / 4096; chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	if cap(ps.ids) < n {
		ps.ids = make([]uint16, n)
	}
	ids := ps.ids[:n]
	counts := growInts(&ps.counts, chunks*shards)
	bounds := func(c int) (lo, hi int) { return c * n / chunks, (c + 1) * n / chunks }
	parallel.ForGrain(chunks, 1, func(c int) {
		cnt := counts[c*shards : (c+1)*shards]
		for j := range cnt {
			cnt[j] = 0
		}
		lo, hi := bounds(c)
		for i := lo; i < hi; i++ {
			id := shardIndex(items[i], shards)
			ids[i] = uint16(id)
			cnt[id]++
		}
	})
	// offsets[c*shards+j]: where chunk c starts writing within shard j's
	// batch.
	totals := growInts(&ps.totals, shards)
	for j := range totals {
		totals[j] = 0
	}
	offsets := growInts(&ps.offsets, chunks*shards)
	for c := 0; c < chunks; c++ {
		for j := 0; j < shards; j++ {
			offsets[c*shards+j] = totals[j]
			totals[j] += counts[c*shards+j]
		}
	}
	if cap(ps.out) < shards {
		ps.out = make([][]uint64, shards)
	}
	out := ps.out[:shards]
	buf := grow(&ps.buf, n)
	start := 0
	for j := range out {
		out[j] = buf[start : start+totals[j] : start+totals[j]]
		start += totals[j]
	}
	parallel.ForGrain(chunks, 1, func(c int) {
		off := offsets[c*shards : (c+1)*shards]
		lo, hi := bounds(c)
		for i := lo; i < hi; i++ {
			j := ids[i]
			out[j][off[j]] = items[i]
			off[j]++
		}
	})
	return out
}

// grow returns buf resized to n, reallocating only when capacity grew.
//
//agglint:hotpath
func grow(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// partitionByShard is the standalone form of partition, used by tests;
// the ingest path goes through the Sharded instance's reused scratch.
func partitionByShard(items []uint64, shards int) [][]uint64 {
	var ps partScratch
	return ps.partition(items, shards)
}

// ProcessBatch hash-partitions the minibatch and ingests every shard's
// sub-batch concurrently, each shard running its own internally-parallel
// ingestion on the shared worker budget. It returns once all shards have
// absorbed their share.
func (s *Sharded) ProcessBatch(items []uint64) error {
	return s.ingestErr(len(items), func() error {
		if len(s.shards) == 0 {
			return fmt.Errorf("%w: empty sharded aggregate", ErrBadParam)
		}
		if len(items) == 0 {
			return nil
		}
		s.invalidateSnap() // even a partial failure mutates some shards
		parts := s.part.partition(items, len(s.shards))
		errs := make([]error, len(parts))
		parallel.ForGrain(len(parts), 1, func(i int) {
			if len(parts[i]) == 0 {
				return
			}
			if err := s.shards[i].ProcessBatch(parts[i]); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		})
		return errors.Join(errs...)
	})
}

// SpaceWords reports the summed footprint of all shards in 64-bit words.
func (s *Sharded) SpaceWords() (w int) {
	s.read(func() {
		for _, sh := range s.shards {
			w += sh.SpaceWords()
		}
	})
	return w
}

// Estimate routes the point query to the item's owner shard — no merge
// needed: with disjoint keyspaces all of the item's mass lives there,
// and the shard's shorter sub-stream only tightens the εm bound.
func (s *Sharded) Estimate(item uint64) (est int64) {
	s.read(func() {
		if len(s.shards) == 0 {
			return
		}
		if pe, ok := s.shards[shardIndex(item, len(s.shards))].(PointEstimator); ok {
			est = pe.Estimate(item)
		}
	})
	return est
}

// TopK unions the shards' per-shard top k and keeps the k largest:
// exact relative to the shard summaries, because every item's counter
// lives in exactly one shard.
func (s *Sharded) TopK(k int) (out []ItemCount) {
	s.read(func() {
		for _, sh := range s.shards {
			if hh, ok := sh.(HeavyHitterSource); ok {
				out = append(out, hh.TopK(k)...)
			}
		}
	})
	sortByCountDesc(out)
	if k < 0 {
		k = 0
	}
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// HeavyHitters answers through the cached merged view: the φ threshold
// is relative to the global stream length, which only the merged summary
// knows.
func (s *Sharded) HeavyHitters(phi float64) (out []ItemCount) {
	s.read(func() {
		merged, err := s.mergedView()
		if err != nil {
			return
		}
		if hh, ok := merged.(HeavyHitterSource); ok {
			out = hh.HeavyHitters(phi)
		}
	})
	return out
}

// RangeCount sums the shards' range counts: the shards partition the
// stream, every level sketch only overcounts, so the sum keeps the
// one-sided guarantee at the global m.
func (s *Sharded) RangeCount(lo, hi uint64) (total int64) {
	s.read(func() {
		for _, sh := range s.shards {
			if re, ok := sh.(RangeEstimator); ok {
				total += re.RangeCount(lo, hi)
			}
		}
	})
	return total
}

// Quantile answers through the cached merged view, whose binary search
// needs the global prefix counts.
func (s *Sharded) Quantile(q float64) (out uint64) {
	s.read(func() {
		merged, err := s.mergedView()
		if err != nil {
			return
		}
		if re, ok := merged.(RangeEstimator); ok {
			out = re.Quantile(q)
		}
	})
	return out
}

// cloneMergeable deep-copies one of the mergeable kinds under its read
// lock — the cheap memcpy path Snapshot uses for shard 0 and Clone for
// every mergeable member, avoiding a checkpoint round trip per copy.
func cloneMergeable(agg Aggregate) (Aggregate, bool) {
	switch a := agg.(type) {
	case *Sharded:
		out := &Sharded{}
		a.read(func() {
			out.inner, out.streamLen = a.inner, a.streamLen
			out.shards = make([]Aggregate, len(a.shards))
			for i, sh := range a.shards {
				out.shards[i], _ = cloneMergeable(sh) // every shardable kind is mergeable
			}
		})
		return out, true
	case *FreqEstimator:
		out := &FreqEstimator{}
		a.read(func() { out.impl, out.streamLen = a.impl.Clone(), a.streamLen })
		return out, true
	case *CountMin:
		out := &CountMin{}
		a.read(func() { out.impl, out.streamLen = a.impl.Clone(), a.streamLen })
		return out, true
	case *CountMinRange:
		out := &CountMinRange{}
		a.read(func() { out.impl, out.streamLen = a.impl.Clone(), a.streamLen })
		return out, true
	case *CountSketch:
		out := &CountSketch{}
		a.read(func() { out.impl, out.streamLen = a.impl.Clone(), a.streamLen })
		return out, true
	}
	return nil, false
}

// invalidateSnap marks the cached merged view stale. Callers hold the
// gate's write lock, so no reader can be rebuilding concurrently.
func (s *Sharded) invalidateSnap() {
	s.snapMu.Lock()
	s.snap = nil
	s.snapMu.Unlock()
}

// mergedView returns the cached merge of all shards, rebuilding it if an
// ingest invalidated it. Callers hold the gate's read (or write) lock;
// the returned aggregate is shared and must be treated as read-only —
// Snapshot clones it before handing it out.
func (s *Sharded) mergedView() (Aggregate, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snap != nil {
		s.snapHits.Add(1)
		return s.snap, nil
	}
	s.snapMisses.Add(1)
	merged, err := s.mergeShards()
	if err != nil {
		return nil, err
	}
	s.snap = merged
	return merged, nil
}

// MergeCacheStats reports how often global-summary queries
// (HeavyHitters, Quantile, Snapshot) were served from the cached merged
// view vs. paying the S-way merge.
func (s *Sharded) MergeCacheStats() (hits, misses int64) {
	return s.snapHits.Load(), s.snapMisses.Load()
}

// mergeShards clones shard 0 and folds the rest in with Merge. Callers
// hold the gate's read (or write) lock.
func (s *Sharded) mergeShards() (Aggregate, error) {
	if len(s.shards) == 0 {
		return nil, fmt.Errorf("%w: empty sharded aggregate", ErrBadParam)
	}
	merged, ok := cloneMergeable(s.shards[0])
	if !ok {
		return nil, fmt.Errorf("%w: %s does not support merging", ErrBadParam, s.inner)
	}
	m := merged.(Merger) // every cloneMergeable kind is a Merger
	for i, sh := range s.shards[1:] {
		if err := m.Merge(sh); err != nil {
			return nil, fmt.Errorf("streamagg: merging shard %d: %w", i+1, err)
		}
	}
	return merged, nil
}

// Snapshot merges all shards into one standalone aggregate of the inner
// kind — a consistent global summary as of the last minibatch boundary.
// The merge is served from the query cache when it is still valid; the
// returned snapshot is always detached: it shares no state with the
// shards (or the cache) and the caller may query or mutate it freely.
func (s *Sharded) Snapshot() (Aggregate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	merged, err := s.mergedView()
	if err != nil {
		return nil, err
	}
	snap, ok := cloneMergeable(merged)
	if !ok {
		return nil, fmt.Errorf("%w: %s does not support merging", ErrBadParam, s.inner)
	}
	return snap, nil
}

// Merge absorbs another Sharded aggregate shard-by-shard. Both operands
// must share the inner kind and the shard count: shardIndex is fixed, so
// equal shard counts mean shard i of both sides holds the same keyspace
// slice and the per-shard merges preserve the disjoint-keyspace routing
// that point queries rely on. Mismatched layouts (or a self-merge)
// return an error wrapping ErrIncompatibleMerge; the receiver is
// unchanged on any error — every shard pair is checked before any shard
// merges.
func (s *Sharded) Merge(other Aggregate) error { return s.fold(other, foldMerge) }

func (s *Sharded) fold(other Aggregate, op foldOp) error {
	o, err := mergeArg(s, other)
	if err != nil {
		return err
	}
	return s.lockPair(&o.gate, op, func() error {
		if o.inner != s.inner {
			return fmt.Errorf("%w: sharded inner kinds differ (%s vs %s)",
				ErrIncompatibleMerge, s.inner, o.inner)
		}
		if len(o.shards) != len(s.shards) {
			return fmt.Errorf("%w: shard counts differ (%d vs %d)",
				ErrIncompatibleMerge, len(s.shards), len(o.shards))
		}
		for i, sh := range s.shards {
			if err := foldInto(sh, o.shards[i], foldCheck); err != nil {
				return fmt.Errorf("streamagg: merging shard %d: %w", i, err)
			}
		}
		if op == foldCheck {
			return nil
		}
		s.invalidateSnap()
		for i, sh := range s.shards {
			if err := foldInto(sh, o.shards[i], op); err != nil {
				return fmt.Errorf("streamagg: merging shard %d: %w", i, err)
			}
		}
		return nil
	})
}

// MarshalBinary checkpoints the whole shard set atomically: taken under
// the wrapper's gate, it captures every shard at the same minibatch
// boundary in one frame whose body lists the shards in order, each with
// an empty name and its own frame inline.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return appendFrame(nil, KindSharded, s.streamLen, func(dst []byte) ([]byte, error) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.shards)))
		for i, sh := range s.shards {
			var err error
			if dst, err = appendMember(dst, "", sh); err != nil {
				return nil, fmt.Errorf("checkpointing shard %d: %w", i, err)
			}
		}
		return dst, nil
	})
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary,
// rebuilding every shard. It is valid on a zero-value Sharded.
func (s *Sharded) UnmarshalBinary(data []byte) error {
	ms, streamLen, err := openMembers(KindSharded, data)
	if err != nil {
		return err
	}
	if len(ms) < 1 || len(ms) > maxShards {
		return fmt.Errorf("%w: sharded checkpoint has %d shards (want 1..%d)",
			ErrBadParam, len(ms), maxShards)
	}
	inner := ms[0].kind
	if !shardable[inner] {
		return fmt.Errorf("%w: kind %q is not shardable", ErrBadParam, inner)
	}
	shards := make([]Aggregate, len(ms))
	for i, m := range ms {
		agg, err := zeroAggregate(inner)
		if err != nil {
			return err
		}
		if err := agg.UnmarshalBinary(m.ckpt); err != nil {
			return fmt.Errorf("streamagg: restoring shard %d: %w", i, err)
		}
		shards[i] = agg
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateSnap()
	s.inner = inner
	s.shards = shards
	s.streamLen = streamLen
	return nil
}
