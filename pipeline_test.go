package streamagg

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// buildFullPipeline registers one aggregate of every kind. Items are
// drawn from [0, 4096) so WindowSum and CountMinRange accept the same
// stream the frequency aggregates see.
func buildFullPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p := NewPipeline()
	add := func(name string, kind Kind, opts ...Option) {
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	add("ones", KindBasicCounter, WithWindow(4096), WithEpsilon(0.05))
	add("load", KindWindowSum, WithWindow(4096), WithMaxValue(4095), WithEpsilon(0.05))
	add("freq", KindFreq, WithEpsilon(0.01))
	add("recent", KindSlidingFreq, WithWindow(8192), WithEpsilon(0.02))
	add("cm", KindCountMin, WithEpsilon(0.001), WithDelta(0.01), WithSeed(7))
	add("dist", KindCountMinRange, WithUniverseBits(12), WithEpsilon(0.002), WithDelta(0.01), WithSeed(3))
	add("cs", KindCountSketch, WithEpsilon(0.05), WithDelta(0.01), WithSeed(9))
	return p
}

// comparePipelines asserts both pipelines answer every query surface
// identically — the checkpoint/restore contract.
func comparePipelines(t *testing.T, a, b *Pipeline, probes []uint64) {
	t.Helper()
	if a.StreamLen() != b.StreamLen() {
		t.Fatalf("StreamLen diverged: %d vs %d", a.StreamLen(), b.StreamLen())
	}
	if a.SpaceWords() != b.SpaceWords() {
		t.Fatalf("SpaceWords diverged: %d vs %d", a.SpaceWords(), b.SpaceWords())
	}
	for _, name := range []string{"freq", "recent", "cm", "cs"} {
		for _, item := range probes {
			ea, err := a.Estimate(name, item)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := b.Estimate(name, item)
			if err != nil {
				t.Fatal(err)
			}
			if ea != eb {
				t.Fatalf("%s: estimate diverged for item %d: %d vs %d", name, item, ea, eb)
			}
		}
	}
	for _, name := range []string{"ones", "load"} {
		va, err := a.Value(name)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Value(name)
		if err != nil {
			t.Fatal(err)
		}
		if va != vb {
			t.Fatalf("%s: value diverged: %d vs %d", name, va, vb)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		qa, err := a.Quantile("dist", q)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := b.Quantile("dist", q)
		if err != nil {
			t.Fatal(err)
		}
		if qa != qb {
			t.Fatalf("dist: quantile %g diverged: %d vs %d", q, qa, qb)
		}
	}
	ra, _ := a.RangeCount("dist", 0, 2047)
	rb, _ := b.RangeCount("dist", 0, 2047)
	if ra != rb {
		t.Fatalf("dist: range count diverged: %d vs %d", ra, rb)
	}
	ha, err := a.HeavyHitters("recent", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.HeavyHitters("recent", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ha) != len(hb) {
		t.Fatalf("recent: heavy-hitter sets diverged: %d vs %d entries", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("recent: heavy hitter %d diverged: %+v vs %+v", i, ha[i], hb[i])
		}
	}
}

// TestPipelineConcurrentStressAndCheckpoint is the integration test for
// the whole new surface: all seven kinds in one pipeline, minibatches
// ingested while query goroutines hammer every keyed query (run under
// -race in CI), a checkpoint taken mid-stream, restored, and both
// pipelines fed the identical suffix — estimates must be identical to an
// uninterrupted run.
func TestPipelineConcurrentStressAndCheckpoint(t *testing.T) {
	p := buildFullPipeline(t)
	if got := p.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}

	stream := workload.Uniform(17, 60000, 4096)
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
					for _, name := range []string{"freq", "recent", "cm", "cs"} {
						if _, err := p.Estimate(name, 42); err != nil {
							t.Error(err)
							return
						}
					}
					_, _ = p.Value("ones")
					_, _ = p.Value("load")
					_, _ = p.HeavyHitters("recent", 0.05)
					_, _ = p.TopK("freq", 5)
					_, _ = p.Quantile("dist", 0.5)
					_, _ = p.RangeCount("dist", 0, 1000)
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
	restored := &Pipeline{} // zero value, no pre-registration
	if err := restored.UnmarshalBinary(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Names(), p.Names(); len(got) != len(want) {
		t.Fatalf("restored %d aggregates, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("restored name order %v, want %v", got, want)
			}
		}
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
	comparePipelines(t, p, restored, probes)

	// Double round trip: a restored pipeline must itself checkpoint.
	ckpt2, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	again := NewPipeline()
	if err := again.UnmarshalBinary(ckpt2); err != nil {
		t.Fatal(err)
	}
	comparePipelines(t, restored, again, probes)
}

func TestPipelineRegistrationErrors(t *testing.T) {
	p := NewPipeline()
	if err := p.Register("", nil); !errors.Is(err, ErrBadParam) {
		t.Fatal("empty name accepted")
	}
	if err := p.Register("x", nil); !errors.Is(err, ErrBadParam) {
		t.Fatal("nil aggregate accepted")
	}
	if _, err := p.Add("f", KindFreq); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("f", KindCountMin); !errors.Is(err, ErrBadParam) {
		t.Fatal("duplicate name accepted")
	}
	if _, err := p.Add("bad", Kind("nope")); !errors.Is(err, ErrBadParam) {
		t.Fatal("unknown kind accepted")
	}
	if _, err := p.Add("badopt", KindFreq, WithEpsilon(0)); !errors.Is(err, ErrBadParam) {
		t.Fatal("invalid option accepted")
	}
	if got := p.Names(); len(got) != 1 || got[0] != "f" {
		t.Fatalf("Names = %v", got)
	}
}

// TestPipelineUnknownNameSentinel: every keyed query method on an
// unregistered name must return the named sentinel ErrNoSuchAggregate
// (callers dispatch on it to distinguish "no such key" from "key exists
// but cannot answer this query"), on empty and populated pipelines alike.
func TestPipelineUnknownNameSentinel(t *testing.T) {
	queries := map[string]func(p *Pipeline) error{
		"Estimate":     func(p *Pipeline) error { _, err := p.Estimate("nope", 1); return err },
		"Value":        func(p *Pipeline) error { _, err := p.Value("nope"); return err },
		"HeavyHitters": func(p *Pipeline) error { _, err := p.HeavyHitters("nope", 0.1); return err },
		"TopK":         func(p *Pipeline) error { _, err := p.TopK("nope", 3); return err },
		"RangeCount":   func(p *Pipeline) error { _, err := p.RangeCount("nope", 0, 10); return err },
		"Quantile":     func(p *Pipeline) error { _, err := p.Quantile("nope", 0.5); return err },
	}
	for _, tc := range []struct {
		name string
		p    *Pipeline
	}{
		{"empty", NewPipeline()},
		{"populated", buildFullPipeline(t)},
	} {
		for method, q := range queries {
			err := q(tc.p)
			if !errors.Is(err, ErrNoSuchAggregate) {
				t.Fatalf("%s pipeline: %s on unknown name returned %v, want ErrNoSuchAggregate", tc.name, method, err)
			}
			if !strings.Contains(err.Error(), "nope") {
				t.Fatalf("%s pipeline: %s error does not name the missing key: %v", tc.name, method, err)
			}
			// The sentinel must not be conflated with the other sentinels.
			if errors.Is(err, ErrUnsupportedQuery) || errors.Is(err, ErrBadParam) {
				t.Fatalf("%s pipeline: %s error matches the wrong sentinel: %v", tc.name, method, err)
			}
		}
	}
}

func TestPipelineQueryErrors(t *testing.T) {
	p := buildFullPipeline(t)
	if _, err := p.Estimate("nope", 1); !errors.Is(err, ErrNoSuchAggregate) {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := p.Value("freq"); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("Value on freq: %v", err)
	}
	if _, err := p.Estimate("ones", 1); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("Estimate on basic counter: %v", err)
	}
	if _, err := p.HeavyHitters("cm", 0.1); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("HeavyHitters on count-min: %v", err)
	}
	if _, err := p.TopK("load", 3); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("TopK on window-sum: %v", err)
	}
	if _, err := p.Quantile("freq", 0.5); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("Quantile on freq: %v", err)
	}
	if _, err := p.RangeCount("cs", 0, 10); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("RangeCount on count-sketch: %v", err)
	}
	// Negative k must not panic through the keyed surface.
	for _, name := range []string{"freq", "recent"} {
		if top, err := p.TopK(name, -1); err != nil || len(top) != 0 {
			t.Fatalf("TopK(%s, -1) = %v, %v; want empty", name, top, err)
		}
	}
}

// A failing aggregate (WindowSum on an out-of-bound value) reports its
// name, ingests nothing, and does not stop its siblings — neither the
// ones fed the shared histogram nor the ones fed the raw items. Several
// failures are joined in registration order.
func TestPipelinePartialFailure(t *testing.T) {
	p := NewPipeline()
	if _, err := p.Add("sum", KindWindowSum, WithWindow(100), WithMaxValue(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("freq", KindFreq); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("recent", KindSlidingFreq, WithWindow(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("sum2", KindWindowSum, WithWindow(100), WithMaxValue(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("cm", KindCountMin); err != nil {
		t.Fatal(err)
	}
	err := p.ProcessBatch([]uint64{1, 2, 99})
	if !errors.Is(err, ErrBadParam) {
		t.Fatalf("overflow not reported: %v", err)
	}
	first, second := strings.Index(err.Error(), "sum: "), strings.Index(err.Error(), "sum2: ")
	if first < 0 || second < first {
		t.Fatalf("error does not name both failed aggregates in registration order: %v", err)
	}
	for _, name := range []string{"freq", "recent", "cm"} {
		if strings.Contains(err.Error(), name+": ") {
			t.Fatalf("error blames %s: %v", name, err)
		}
		if e, err := p.Estimate(name, 1); err != nil || e != 1 {
			t.Fatalf("sibling %s did not ingest: %d, %v", name, e, err)
		}
	}
	for _, name := range []string{"sum", "sum2"} {
		if v, err := p.Value(name); err != nil || v != 0 {
			t.Fatalf("failed aggregate %s ingested anyway: %d, %v", name, v, err)
		}
	}
	if p.StreamLen() != 3 {
		t.Fatalf("StreamLen = %d, want 3", p.StreamLen())
	}
	if err := p.ProcessBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatalf("in-bound batch after a failed one: %v", err)
	}
}

func TestPipelineCheckpointRejectsWrongEnvelope(t *testing.T) {
	f, _ := NewFreqEstimator(0.1)
	aggCkpt, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var p Pipeline
	if err := p.UnmarshalBinary(aggCkpt); !errors.Is(err, ErrBadParam) {
		t.Fatalf("aggregate checkpoint accepted by pipeline: %v", err)
	}
	if err := p.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	pCkpt, err := (&Pipeline{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.UnmarshalBinary(pCkpt); !errors.Is(err, ErrBadParam) {
		t.Fatalf("pipeline checkpoint accepted by aggregate: %v", err)
	}
}

// StreamLen survives a per-aggregate checkpoint round trip even for
// kinds whose internal state does not track it (BasicCounter, WindowSum,
// sketches).
func TestAggregateStreamLenRestored(t *testing.T) {
	for _, kind := range []Kind{
		KindBasicCounter, KindWindowSum, KindFreq, KindSlidingFreq,
		KindCountMin, KindCountMinRange, KindCountSketch,
	} {
		opts := map[Kind][]Option{
			KindBasicCounter:  {WithWindow(64)},
			KindWindowSum:     {WithWindow(64), WithMaxValue(4095)},
			KindSlidingFreq:   {WithWindow(64)},
			KindCountMinRange: {WithUniverseBits(12)},
		}[kind]
		agg, err := New(kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.ProcessBatch([]uint64{1, 2, 3, 0, 5}); err != nil {
			t.Fatal(err)
		}
		ckpt, err := agg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := zeroAggregate(kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalBinary(ckpt); err != nil {
			t.Fatal(err)
		}
		if fresh.StreamLen() != 5 {
			t.Fatalf("%s: StreamLen after restore = %d, want 5", kind, fresh.StreamLen())
		}
	}
}
