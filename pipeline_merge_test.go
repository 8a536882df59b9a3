package streamagg

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/workload"
)

// mergePipeline builds a pipeline of the four mergeable kinds with
// pinned seeds, so two instances built from the same call merge.
func mergePipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := NewPipeline()
	add := func(name string, kind Kind, opts ...Option) {
		t.Helper()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	add("hot", KindFreq, WithEpsilon(0.002))
	add("cm", KindCountMin, WithEpsilon(1e-3), WithDelta(0.01), WithSeed(7))
	add("dist", KindCountMinRange, WithUniverseBits(18), WithEpsilon(0.002), WithSeed(3))
	add("sk", KindCountSketch, WithEpsilon(0.01), WithDelta(0.01), WithSeed(5))
	return p
}

func feedPipeline(t *testing.T, p *Pipeline, items []uint64) {
	t.Helper()
	if err := p.ProcessBatch(items); err != nil {
		t.Fatal(err)
	}
}

// checkpointOf captures a pipeline for byte-identity assertions.
func checkpointOf(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPipelineMergeCombines merges two disjointly-fed pipelines and
// checks every query against a pipeline that saw the whole stream: the
// linear sketches (count-min, count-min-range, count-sketch) must agree
// exactly — cell-wise sums with shared seeds — and the Misra-Gries
// estimator within the paper's merged bound f - ε·m <= est <= f.
func TestPipelineMergeCombines(t *testing.T) {
	const n = 200_000
	streamA := workload.Zipf(21, n, 1.2, 1<<18)
	streamB := workload.Zipf(22, n, 1.2, 1<<18)

	a, b, oracle := mergePipeline(t), mergePipeline(t), mergePipeline(t)
	feedPipeline(t, a, streamA)
	feedPipeline(t, b, streamB)
	feedPipeline(t, oracle, streamA)
	feedPipeline(t, oracle, streamB)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.StreamLen(), int64(2*n); got != want {
		t.Fatalf("merged StreamLen = %d, want %d", got, want)
	}

	truth := map[uint64]int64{}
	for _, it := range streamA {
		truth[it]++
	}
	for _, it := range streamB {
		truth[it]++
	}
	probes := []uint64{streamA[0], streamB[0], 1, 17, 999, 1 << 17}
	for _, item := range probes {
		for _, name := range []string{"cm", "sk"} {
			got, err := a.Estimate(name, item)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Estimate(name, item)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s.Estimate(%d) = %d merged, %d oracle", name, item, got, want)
			}
		}
		got, err := a.Estimate("hot", item)
		if err != nil {
			t.Fatal(err)
		}
		f := truth[item]
		slack := int64(0.002 * float64(2*n))
		if got > f || got < f-slack {
			t.Fatalf("hot.Estimate(%d) = %d outside [%d, %d]", item, got, f-slack, f)
		}
	}
	for _, probe := range []struct{ lo, hi uint64 }{{0, 1 << 17}, {5, 4096}} {
		got, err := a.RangeCount("dist", probe.lo, probe.hi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.RangeCount("dist", probe.lo, probe.hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dist.RangeCount(%d,%d) = %d merged, %d oracle", probe.lo, probe.hi, got, want)
		}
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		got, err := a.Quantile("dist", q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Quantile("dist", q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dist.Quantile(%g) = %d merged, %d oracle", q, got, want)
		}
	}
	// Value falls back to the exact merged TotalCount on count-min.
	if got, err := a.Value("cm"); err != nil || got != int64(2*n) {
		t.Fatalf("cm.Value() = %d, %v; want %d", got, err, 2*n)
	}
}

// TestPipelineMergeIncompatibleTable drives every mergeable kind through
// the incompatibility cases — cross-kind under a shared name, mismatched
// dimensions, mismatched seed — and checks the receiver is untouched
// (byte-identical checkpoint) with an error wrapping ErrIncompatibleMerge.
func TestPipelineMergeIncompatibleTable(t *testing.T) {
	mk := func(name string, kind Kind, opts ...Option) *Pipeline {
		t.Helper()
		p := NewPipeline()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		label    string
		dst, src *Pipeline
	}{
		{"freq-vs-countmin", mk("x", KindFreq), mk("x", KindCountMin)},
		{"countmin-vs-countsketch", mk("x", KindCountMin), mk("x", KindCountSketch)},
		{"countminrange-vs-freq", mk("x", KindCountMinRange, WithUniverseBits(16)), mk("x", KindFreq)},
		{"countsketch-vs-countminrange", mk("x", KindCountSketch), mk("x", KindCountMinRange, WithUniverseBits(16))},
		{"freq-eps-mismatch", mk("x", KindFreq, WithEpsilon(0.01)), mk("x", KindFreq, WithEpsilon(0.001))},
		{"countmin-eps-mismatch", mk("x", KindCountMin, WithEpsilon(1e-3)), mk("x", KindCountMin, WithEpsilon(1e-4))},
		{"countmin-seed-mismatch", mk("x", KindCountMin, WithSeed(1)), mk("x", KindCountMin, WithSeed(2))},
		{"countminrange-bits-mismatch",
			mk("x", KindCountMinRange, WithUniverseBits(16)),
			mk("x", KindCountMinRange, WithUniverseBits(18))},
		{"countminrange-seed-mismatch",
			mk("x", KindCountMinRange, WithUniverseBits(16), WithSeed(1)),
			mk("x", KindCountMinRange, WithUniverseBits(16), WithSeed(2))},
		{"countsketch-seed-mismatch", mk("x", KindCountSketch, WithSeed(1)), mk("x", KindCountSketch, WithSeed(2))},
		{"non-mergeable-kind",
			mk("x", KindBasicCounter, WithWindow(1<<10)),
			mk("x", KindBasicCounter, WithWindow(1<<10))},
		{"no-shared-names", mk("a", KindFreq), mk("b", KindFreq)},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			feedPipeline(t, tc.dst, workload.Zipf(31, 5000, 1.2, 1<<14))
			feedPipeline(t, tc.src, workload.Zipf(32, 5000, 1.2, 1<<14))
			before := checkpointOf(t, tc.dst)
			err := tc.dst.Merge(tc.src)
			if !errors.Is(err, ErrIncompatibleMerge) {
				t.Fatalf("Merge: %v, want ErrIncompatibleMerge", err)
			}
			if !bytes.Equal(before, checkpointOf(t, tc.dst)) {
				t.Fatal("receiver changed by a failed merge")
			}
		})
	}
}

// TestPipelineMergePartialOverlap: names present on only one side are
// left alone; only the intersection merges.
func TestPipelineMergePartialOverlap(t *testing.T) {
	dst, src := NewPipeline(), NewPipeline()
	for _, p := range []*Pipeline{dst, src} {
		if _, err := p.Add("shared", KindCountMin, WithSeed(9)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dst.Add("mine", KindFreq); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Add("theirs", KindFreq); err != nil {
		t.Fatal(err)
	}
	stream := workload.Zipf(41, 10000, 1.2, 1<<14)
	feedPipeline(t, dst, stream[:5000])
	feedPipeline(t, src, stream[5000:])
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Get("theirs"); ok {
		t.Fatal("merge grafted a foreign member into the receiver")
	}
	if got, err := dst.Value("shared"); err != nil || got != int64(len(stream)) {
		t.Fatalf("shared.Value() = %d, %v; want %d", got, err, len(stream))
	}
	// "mine" only ever saw dst's half.
	if est, err := dst.Estimate("mine", stream[0]); err != nil || est < 0 {
		t.Fatalf("mine.Estimate = %d, %v", est, err)
	}
}

// TestPipelineMergeAtomicity: one compatible pair plus one incompatible
// pair must leave the receiver byte-identical — the compatible member
// must not merge on its own.
func TestPipelineMergeAtomicity(t *testing.T) {
	mk := func(seed int64) *Pipeline {
		p := NewPipeline()
		if _, err := p.Add("ok", KindCountMin, WithSeed(9)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Add("bad", KindCountMin, WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	dst, src := mk(1), mk(2) // "bad" seeds differ, "ok" pair matches
	feedPipeline(t, dst, workload.Zipf(51, 5000, 1.2, 1<<14))
	feedPipeline(t, src, workload.Zipf(52, 5000, 1.2, 1<<14))
	before := checkpointOf(t, dst)
	if err := dst.Merge(src); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("Merge: %v, want ErrIncompatibleMerge", err)
	}
	if !bytes.Equal(before, checkpointOf(t, dst)) {
		t.Fatal("partial merge escaped: receiver changed despite the error")
	}
}

// TestPipelineMergeSelfAndNil covers the degenerate arguments.
func TestPipelineMergeSelfAndNil(t *testing.T) {
	p := mergePipeline(t)
	if err := p.Merge(nil); !errors.Is(err, ErrBadParam) {
		t.Fatalf("Merge(nil): %v, want ErrBadParam", err)
	}
	if err := p.Merge(p); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("Merge(self): %v, want ErrIncompatibleMerge", err)
	}
}

// TestPipelineClone: a clone answers identically and then diverges
// independently.
func TestPipelineClone(t *testing.T) {
	p := mergePipeline(t)
	stream := workload.Zipf(61, 50000, 1.2, 1<<16)
	feedPipeline(t, p, stream)
	c, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpointOf(t, p), checkpointOf(t, c)) {
		t.Fatal("clone checkpoint differs from the original")
	}
	feedPipeline(t, c, stream[:1000])
	if got, _ := c.Value("cm"); got != int64(len(stream)+1000) {
		t.Fatalf("clone cm.Value() = %d after divergence", got)
	}
	if got, _ := p.Value("cm"); got != int64(len(stream)) {
		t.Fatalf("original cm.Value() = %d, clone leaked back", got)
	}
}

// TestShardedMerge: merging two sharded aggregates shard-by-shard keeps
// point queries consistent with a directly-fed sharded oracle, and the
// layout checks reject mismatches.
func TestShardedMerge(t *testing.T) {
	mk := func(shards int) *Sharded {
		s, err := NewSharded(KindCountMin, shards, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	streamA := workload.Zipf(71, 100_000, 1.2, 1<<16)
	streamB := workload.Zipf(72, 100_000, 1.2, 1<<16)
	a, b, oracle := mk(8), mk(8), mk(8)
	for _, pair := range []struct {
		dst    *Sharded
		stream []uint64
	}{{a, streamA}, {b, streamB}, {oracle, streamA}, {oracle, streamB}} {
		if err := pair.dst.ProcessBatch(pair.stream); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.StreamLen(), int64(200_000); got != want {
		t.Fatalf("merged StreamLen = %d, want %d", got, want)
	}
	for _, item := range []uint64{streamA[0], streamB[0], 1, 999} {
		if got, want := a.Estimate(item), oracle.Estimate(item); got != want {
			t.Fatalf("Estimate(%d) = %d merged, %d oracle", item, got, want)
		}
	}

	if err := a.Merge(mk(4)); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("shard-count mismatch: %v, want ErrIncompatibleMerge", err)
	}
	other, err := NewSharded(KindFreq, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(other); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("inner-kind mismatch: %v, want ErrIncompatibleMerge", err)
	}
	if err := a.Merge(a); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("self merge: %v, want ErrIncompatibleMerge", err)
	}
	cm, err := New(KindCountMin, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(cm); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("unsharded argument: %v, want ErrIncompatibleMerge", err)
	}
}

// TestUnmarshalAggregateHelpers covers the exported checkpoint helpers
// the federation layer decodes payloads with.
func TestUnmarshalAggregateHelpers(t *testing.T) {
	agg, err := New(KindFreq, WithEpsilon(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.ProcessBatch([]uint64{1, 2, 2, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	ckpt, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := CheckpointKind(ckpt); err != nil || kind != KindFreq {
		t.Fatalf("CheckpointKind = %q, %v", kind, err)
	}
	back, err := UnmarshalAggregate(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind() != KindFreq || back.StreamLen() != 6 {
		t.Fatalf("restored %s with StreamLen %d", back.Kind(), back.StreamLen())
	}
	if _, err := UnmarshalAggregate([]byte("garbage")); err == nil {
		t.Fatal("UnmarshalAggregate accepted garbage")
	}

	p := mergePipeline(t)
	feedPipeline(t, p, []uint64{1, 2, 3})
	pc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A pipeline envelope is not a single aggregate...
	if _, err := UnmarshalAggregate(pc); err == nil {
		t.Fatal("UnmarshalAggregate accepted a pipeline checkpoint")
	}
	// ...but round-trips through UnmarshalPipeline.
	back2, err := UnmarshalPipeline(pc)
	if err != nil {
		t.Fatal(err)
	}
	if back2.StreamLen() != 3 || back2.Len() != p.Len() {
		t.Fatalf("restored pipeline: len %d, stream %d", back2.Len(), back2.StreamLen())
	}
}
