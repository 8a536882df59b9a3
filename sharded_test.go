package streamagg

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestMergeCombinesDisjointStreams: merging two aggregates fed disjoint
// halves of a stream must answer like one aggregate fed the whole
// stream, within each kind's bound (exactly, for the linear sketches).
func TestMergeCombinesDisjointStreams(t *testing.T) {
	streamA := workload.Zipf(5, 8000, 1.3, 1<<10)
	streamB := workload.Distinct(1<<11, 8000)
	full := append(append([]uint64{}, streamA...), streamB...)
	counts := exactCounts(full)

	mk := func(kind Kind, opts ...Option) (Aggregate, Aggregate) {
		a, err := New(kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	feedAndMerge := func(a, b Aggregate) Aggregate {
		if err := a.ProcessBatch(streamA); err != nil {
			t.Fatal(err)
		}
		if err := b.ProcessBatch(streamB); err != nil {
			t.Fatal(err)
		}
		if err := a.(Merger).Merge(b); err != nil {
			t.Fatal(err)
		}
		return a
	}

	t.Run("count-min", func(t *testing.T) {
		a, b := mk(KindCountMin, WithEpsilon(0.001), WithDelta(0.01), WithSeed(7))
		merged := feedAndMerge(a, b)
		// Linear sketch: the merged state must equal the single-sketch
		// state of the concatenated stream, so compare cell-exactly via
		// the point estimates of a direct run.
		direct, err := NewCountMin(0.001, 0.01, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range [][]uint64{streamA, streamB} {
			for _, it := range u {
				direct.Update(it, 1)
			}
		}
		for item := range counts {
			if got, want := merged.(PointEstimator).Estimate(item), direct.Query(item); got != want {
				t.Fatalf("item %d: merged %d != direct %d", item, got, want)
			}
		}
		if merged.StreamLen() != int64(len(full)) {
			t.Fatalf("merged StreamLen = %d, want %d", merged.StreamLen(), len(full))
		}
	})
	t.Run("count-sketch", func(t *testing.T) {
		a, b := mk(KindCountSketch, WithEpsilon(0.02), WithDelta(0.01), WithSeed(9))
		merged := feedAndMerge(a, b).(*CountSketch)
		if got, want := merged.TotalCount(), int64(len(full)); got != want {
			t.Fatalf("merged TotalCount = %d, want %d", got, want)
		}
	})
	t.Run("freq", func(t *testing.T) {
		a, b := mk(KindFreq, WithEpsilon(0.005))
		merged := feedAndMerge(a, b)
		slack := int64(0.005*float64(len(full))) + 1
		for item, f := range counts {
			est := merged.(PointEstimator).Estimate(item)
			if est > f || est < f-slack {
				t.Fatalf("item %d: merged estimate %d outside [%d, %d]", item, est, f-slack, f)
			}
		}
	})
	t.Run("count-min-range", func(t *testing.T) {
		a, b := mk(KindCountMinRange, WithUniverseBits(12), WithEpsilon(0.01), WithDelta(0.01))
		merged := feedAndMerge(a, b).(RangeEstimator)
		var inUniverse int64
		for _, it := range full {
			if it < 1<<12 {
				inUniverse++
			}
		}
		if got := merged.RangeCount(0, 1<<12-1); got < inUniverse {
			t.Fatalf("merged full-range count %d < %d", got, inUniverse)
		}
	})
}

func TestMergeRejectsIncompatible(t *testing.T) {
	cm1, _ := NewCountMin(0.01, 0.01, 7)
	cm2, _ := NewCountMin(0.01, 0.01, 8)  // different seed
	cm3, _ := NewCountMin(0.001, 0.01, 7) // different width
	cs, _ := NewCountSketch(0.05, 0.01, 7)
	if err := cm1.Merge(cm2); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("seed mismatch accepted: %v", err)
	}
	if err := cm1.Merge(cm3); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("dimension mismatch accepted: %v", err)
	}
	if err := cm1.Merge(cs); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("cross-kind merge accepted: %v", err)
	}
	if err := cm1.Merge(cm1); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("self-merge accepted: %v", err)
	}
	f1, _ := NewFreqEstimator(0.01)
	if err := f1.Merge(cs); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("freq/count-sketch merge accepted: %v", err)
	}
	f2, _ := NewFreqEstimator(0.5) // coarser capacity would break f1's ε bound
	if err := f1.Merge(f2); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("capacity mismatch accepted: %v", err)
	}
	r1, _ := NewCountMinRange(12, 0.01, 0.01, 3)
	r2, _ := NewCountMinRange(10, 0.01, 0.01, 3)
	if err := r1.Merge(r2); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("universe mismatch accepted: %v", err)
	}
}

func TestWithShardsValidation(t *testing.T) {
	if _, err := New(KindCountMin, WithShards(0)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("shards=0 accepted: %v", err)
	}
	if _, err := New(KindCountMin, WithShards(maxShards+1)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("shards>max accepted: %v", err)
	}
	// The sliding-window kinds cannot be sharded.
	for _, tc := range []struct {
		kind Kind
		opts []Option
	}{
		{KindBasicCounter, []Option{WithWindow(64)}},
		{KindWindowSum, []Option{WithWindow(64), WithMaxValue(10)}},
		{KindSlidingFreq, []Option{WithWindow(64)}},
	} {
		if _, err := New(tc.kind, append(tc.opts, WithShards(2))...); !errors.Is(err, ErrBadParam) {
			t.Fatalf("%s accepted WithShards: %v", tc.kind, err)
		}
	}
	if _, err := NewSharded(KindWindowSum, 2, WithWindow(64), WithMaxValue(10)); !errors.Is(err, ErrBadParam) {
		t.Fatalf("NewSharded on window-sum accepted: %v", err)
	}
	s, err := NewSharded(KindCountMin, 8, WithEpsilon(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 8 || s.InnerKind() != KindCountMin || s.Kind() != KindSharded {
		t.Fatalf("shape: shards=%d inner=%s kind=%s", s.NumShards(), s.InnerKind(), s.Kind())
	}
	// WithShards(1) still returns the wrapper (uniform behavior).
	one, err := New(KindFreq, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := one.(*Sharded); !ok {
		t.Fatalf("WithShards(1) returned %T", one)
	}
}

// TestShardedPartitionRoutesAllItems: the partition is a permutation of
// the batch (stable within each shard) and every item queries its owner.
func TestShardedPartitionRoutesAllItems(t *testing.T) {
	items := workload.Uniform(3, 10000, 1<<16)
	parts := partitionByShard(items, 7)
	total := 0
	for j, part := range parts {
		total += len(part)
		for _, it := range part {
			if shardIndex(it, 7) != j {
				t.Fatalf("item %d landed in shard %d, owner %d", it, j, shardIndex(it, 7))
			}
		}
	}
	if total != len(items) {
		t.Fatalf("partition kept %d of %d items", total, len(items))
	}
	counts := exactCounts(items)
	for j, part := range parts {
		for _, it := range part {
			counts[it]--
		}
		_ = j
	}
	for it, c := range counts {
		if c != 0 {
			t.Fatalf("item %d multiplicity off by %d", it, c)
		}
	}
}

// TestShardedSnapshot: the merged snapshot is detached, covers the whole
// stream, and answers like a single-structure run within bounds.
func TestShardedSnapshot(t *testing.T) {
	stream := workload.Zipf(11, 30000, 1.3, 1<<12)
	counts := exactCounts(stream)
	s, err := NewSharded(KindFreq, 4, WithEpsilon(0.01))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range workload.Batches(stream, 2048) {
		if err := s.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind() != KindFreq {
		t.Fatalf("snapshot kind = %s", snap.Kind())
	}
	if snap.StreamLen() != int64(len(stream)) {
		t.Fatalf("snapshot StreamLen = %d, want %d", snap.StreamLen(), len(stream))
	}
	slack := int64(0.01*float64(len(stream))) + 1
	for item, f := range counts {
		est := snap.(PointEstimator).Estimate(item)
		if est > f || est < f-slack {
			t.Fatalf("item %d: snapshot estimate %d outside [%d, %d]", item, est, f-slack, f)
		}
	}
	// Mutating the snapshot must not leak into the shards.
	before := s.StreamLen()
	if err := snap.ProcessBatch(stream[:100]); err != nil {
		t.Fatal(err)
	}
	if s.StreamLen() != before {
		t.Fatal("snapshot shares state with the sharded aggregate")
	}
}

// compareSharded asserts two sharded aggregates answer identically —
// the checkpoint/restore contract through the Sharded path.
func compareSharded(t *testing.T, a, b *Sharded, probes []uint64) {
	t.Helper()
	if a.StreamLen() != b.StreamLen() {
		t.Fatalf("StreamLen diverged: %d vs %d", a.StreamLen(), b.StreamLen())
	}
	if a.NumShards() != b.NumShards() {
		t.Fatalf("NumShards diverged: %d vs %d", a.NumShards(), b.NumShards())
	}
	if a.SpaceWords() != b.SpaceWords() {
		t.Fatalf("SpaceWords diverged: %d vs %d", a.SpaceWords(), b.SpaceWords())
	}
	for _, item := range probes {
		if ea, eb := a.Estimate(item), b.Estimate(item); ea != eb {
			t.Fatalf("estimate diverged for item %d: %d vs %d", item, ea, eb)
		}
	}
	ta, tb := a.TopK(8), b.TopK(8)
	if len(ta) != len(tb) {
		t.Fatalf("TopK lengths diverged: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("TopK[%d] diverged: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

// TestShardedConcurrentStressAndCheckpoint mirrors the pipeline stress
// test through the Sharded path (run under -race in CI): a pipeline of
// sharded aggregates ingests minibatches while query goroutines hammer
// every surface, a whole-pipeline checkpoint is taken mid-stream,
// restored, and both pipelines are fed the identical suffix — answers
// must match an uninterrupted run exactly.
func TestShardedConcurrentStressAndCheckpoint(t *testing.T) {
	p := NewPipeline()
	add := func(name string, kind Kind, opts ...Option) {
		t.Helper()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	add("freq", KindFreq, WithEpsilon(0.01), WithShards(4))
	add("cm", KindCountMin, WithEpsilon(0.001), WithDelta(0.01), WithSeed(7), WithShards(4))
	add("cs", KindCountSketch, WithEpsilon(0.05), WithDelta(0.01), WithSeed(9), WithShards(3))
	add("dist", KindCountMinRange, WithUniverseBits(12), WithEpsilon(0.01), WithDelta(0.01), WithSeed(3), WithShards(2))

	stream := workload.Uniform(23, 60000, 4096)
	batches := workload.Batches(stream, 2048)
	half := len(batches) / 2
	probes := []uint64{0, 1, 2, 3, 10, 100, 2047, 4095}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, name := range []string{"freq", "cm", "cs"} {
						if _, err := p.Estimate(name, 42); err != nil {
							t.Error(err)
							return
						}
					}
					_, _ = p.TopK("freq", 5)
					_, _ = p.HeavyHitters("freq", 0.05)
					_, _ = p.RangeCount("dist", 0, 1000)
					_, _ = p.Quantile("dist", 0.5)
					_ = p.StreamLen()
					_ = p.SpaceWords()
				}
			}
		}()
	}

	for _, b := range batches[:half] {
		if err := p.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint mid-stream, concurrently with the query load.
	ckpt, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Pipeline{}
	if err := restored.UnmarshalBinary(ckpt); err != nil {
		t.Fatal(err)
	}

	for _, b := range batches[half:] {
		if err := p.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := restored.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if p.StreamLen() != int64(len(stream)) {
		t.Fatalf("StreamLen = %d, want %d", p.StreamLen(), len(stream))
	}
	for _, name := range []string{"freq", "cm", "cs", "dist"} {
		ga, ok := p.Get(name)
		if !ok {
			t.Fatalf("%s missing from live pipeline", name)
		}
		gb, ok := restored.Get(name)
		if !ok {
			t.Fatalf("%s missing from restored pipeline", name)
		}
		sa, aok := ga.(*Sharded)
		sb, bok := gb.(*Sharded)
		if !aok || !bok {
			t.Fatalf("%s restored as %T, want *Sharded", name, gb)
		}
		if sa.InnerKind() != sb.InnerKind() {
			t.Fatalf("%s inner kind diverged: %s vs %s", name, sa.InnerKind(), sb.InnerKind())
		}
		compareSharded(t, sa, sb, probes)
	}
	// Quantile goes through a merged snapshot on both sides.
	qa, err := p.Quantile("dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := restored.Quantile("dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if qa != qb {
		t.Fatalf("median diverged: %d vs %d", qa, qb)
	}
}

// TestShardedCheckpointRejectsBadEnvelopes covers the corrupt-envelope
// error paths of the sharded checkpoint format.
func TestShardedCheckpointRejectsBadEnvelopes(t *testing.T) {
	var s Sharded
	if err := s.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	f, _ := NewFreqEstimator(0.1)
	aggCkpt, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(aggCkpt); !errors.Is(err, ErrBadParam) {
		t.Fatalf("plain aggregate checkpoint accepted by Sharded: %v", err)
	}
	// A sharded checkpoint whose inner kind is itself "sharded" must be
	// rejected (no recursive shard nesting), in either format.
	legacyNested, err := sealLegacy(KindSharded, 0, shardedState{Inner: string(KindSharded), Checkpoints: [][]byte{aggCkpt}})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewSharded(KindFreq, 2, WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := appendFrame(nil, KindSharded, 0, func(dst []byte) ([]byte, error) {
		return appendMember(binary.LittleEndian.AppendUint32(dst, 1), "", inner)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{legacyNested, nested} {
		if err := s.UnmarshalBinary(data); !errors.Is(err, ErrBadParam) {
			t.Fatalf("nested sharded checkpoint accepted: %v", err)
		}
	}
	// Zero-value Sharded cannot ingest.
	if err := s.ProcessBatch([]uint64{1}); !errors.Is(err, ErrBadParam) {
		t.Fatalf("zero-value Sharded ingested: %v", err)
	}
}

// TestShardedSnapshotCacheInvalidation guards the cached merged view
// (run under -race in CI): global queries between ingests are served
// from one merge, every ingest and restore invalidates it, and
// concurrent global queries during ingestion stay consistent with a
// shadow single-structure run.
func TestShardedSnapshotCacheInvalidation(t *testing.T) {
	s, err := NewSharded(KindFreq, 4, WithEpsilon(0.001))
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := New(KindFreq, WithEpsilon(0.001))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		want := shadow.(HeavyHitterSource).HeavyHitters(0.1)
		for i := 0; i < 3; i++ { // repeated queries hit the cache
			got := s.HeavyHitters(0.1)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d heavy hitters, want %d", stage, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s query %d: hh[%d] = %+v, want %+v", stage, i, j, got[j], want[j])
				}
			}
		}
	}
	feed := func(batch []uint64) {
		t.Helper()
		if err := s.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := shadow.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	feed(workload.SingleKey(7, 1000))
	check("after first ingest")
	// The second ingest shifts the heavy-hitter set; a stale cache would
	// keep answering with item 7 alone.
	feed(workload.SingleKey(9, 3000))
	check("after second ingest")

	// Restore invalidates too: rewind to a checkpoint taken now, ingest
	// through the restored value, and the cache must follow.
	ckpt, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	feed(workload.SingleKey(11, 9000))
	check("after third ingest")
	if err := s.UnmarshalBinary(ckpt); err != nil {
		t.Fatal(err)
	}
	if hh := s.HeavyHitters(0.3); len(hh) != 1 || hh[0].Item != 9 {
		t.Fatalf("after restore: heavy hitters %+v, want item 9 only", hh)
	}

	// Concurrent global queries during ingestion: quantile and
	// heavy-hitter readers race the writer; every answer must reflect
	// some batch boundary (the race detector is the real assertion).
	r, err := NewSharded(KindCountMinRange, 3, WithUniverseBits(12), WithEpsilon(0.01))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.Quantile(0.5)
					_ = s.HeavyHitters(0.05)
					if _, err := s.Snapshot(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for _, b := range workload.Batches(workload.Uniform(29, 40000, 4096), 2048) {
		if err := r.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := s.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := r.Quantile(0.5), uint64(2048); got < want/2 || got > want*2 {
		t.Fatalf("final quantile %d implausible (uniform over 4096)", got)
	}
}
