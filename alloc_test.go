package streamagg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/trace"
)

// Steady-state allocation regression tests. testing.AllocsPerRun counts
// every allocation in the process while pinning GOMAXPROCS to 1, which
// also makes the parallel primitives run inline — so these pin the
// serving-path data structures themselves (scratch reuse in the sketches,
// the partition scratch, the batcher's recycled buffers) to (amortized)
// zero allocations per item. Thresholds are per item over full batches:
// a handful of fixed per-batch objects is acceptable, per-item garbage is
// not.

func allocItems(n, universe int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(rng.Intn(universe))
	}
	return items
}

func TestShardedIngestSteadyStateAllocs(t *testing.T) {
	s, err := NewSharded(KindCountMin, 8, WithEpsilon(0.001), WithDelta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	items := allocItems(8192, 4000, 7)
	if err := s.ProcessBatch(items); err != nil { // warm every shard's scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.ProcessBatch(items); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := allocs / float64(len(items)); perItem >= 0.01 {
		t.Fatalf("sharded ingest allocates %.4f objects/item (%.0f/batch), want < 0.01", perItem, allocs)
	}
}

func TestIngestorSteadyStateAllocs(t *testing.T) {
	agg, err := New(KindCountMin, WithEpsilon(0.001), WithDelta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngestor(agg, WithBatchSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	items := allocItems(4096, 2000, 9)
	// Warm the queue buffers, the sketch scratch, and the flush path.
	for i := 0; i < 4; i++ {
		if _, err := in.PutBatch(items); err != nil {
			t.Fatal(err)
		}
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := in.PutBatch(items); err != nil {
			t.Fatal(err)
		}
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := allocs / float64(len(items)); perItem >= 0.01 {
		t.Fatalf("ingestor flush path allocates %.4f objects/item (%.0f/batch), want < 0.01", perItem, allocs)
	}
}

// TestIngestorTracingDisabledAllocs pins the tracing integration's
// zero-cost-when-off invariant: an Ingestor carrying a rate-0 tracer
// must keep the full enqueue+flush cycle — including the nil flush,
// WAL, and apply spans and the batch-context bookkeeping — under the
// same per-item allocation budget as an untraced one.
func TestIngestorTracingDisabledAllocs(t *testing.T) {
	agg, err := New(KindCountMin, WithEpsilon(0.001), WithDelta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngestor(agg, WithBatchSize(4096),
		WithTracer(trace.New(trace.Config{SampleRate: 0})))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	items := allocItems(4096, 2000, 11)
	ctx := context.Background()
	for i := 0; i < 4; i++ { // warm buffers and scratch
		if _, err := in.PutBatchSpan(ctx, items, trace.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := in.PutBatchSpan(ctx, items, trace.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := allocs / float64(len(items)); perItem >= 0.01 {
		t.Fatalf("tracing-disabled ingest allocates %.4f objects/item (%.0f/batch), want < 0.01",
			perItem, allocs)
	}
}

func TestIngestorPutSteadyStateAllocs(t *testing.T) {
	agg, err := New(KindCountMin, WithEpsilon(0.01), WithDelta(0.01))
	if err != nil {
		t.Fatal(err)
	}
	// A huge latency budget keeps the worker parked, so this measures the
	// producer path alone: mutex, append into the recycled buffer.
	in, err := NewIngestor(agg, WithBatchSize(1<<20), WithQueueCap(1<<21))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 0; i < 100000; i++ { // warm the queue buffer past the working size
		if err := in.Put(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	var x uint64
	allocs := testing.AllocsPerRun(50000, func() {
		if err := in.Put(x); err != nil {
			t.Fatal(err)
		}
		x++
	})
	if allocs >= 0.01 {
		t.Fatalf("Ingestor.Put allocates %.4f objects/call, want 0", allocs)
	}
}

// TestHistogramIngestSteadyStateAllocs pins the shared-histogram ingest
// path: Pipeline.ProcessBatch over the demo trio and a standalone
// FreqEstimator allocate nothing per item once their tables and scratch
// have grown. What remains is a per-batch constant — the fan-out's
// goroutines and closures, the row fork-join closures of the levels
// large enough to fork — so the same ceiling must hold at 4096-key and
// at 32768-key batches.
func TestHistogramIngestSteadyStateAllocs(t *testing.T) {
	freq, err := New(KindFreq, WithEpsilon(0.001))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []struct {
		name    string
		process func([]uint64) error
		ceiling float64 // allocations per batch
	}{
		{"pipeline-trio", demoTrio(t).ProcessBatch, 64},
		{"freq-standalone", freq.ProcessBatch, 0},
	} {
		for _, n := range []int{4096, 32768} {
			items := workload.Zipf(int64(n), n, 1.1, 1<<18)
			for i := 0; i < 3; i++ { // grow tables, candidate tails, roll-up buffers
				if err := target.process(items); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := target.process(items); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > target.ceiling {
				t.Fatalf("%s, %d-key batches: %.0f allocations per batch, want <= %.0f at any batch size",
					target.name, n, allocs, target.ceiling)
			}
		}
	}
}
