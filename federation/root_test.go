package federation

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	streamagg "repro"
	"repro/internal/workload"
	"repro/metrics"
)

// fedPipeline builds a pipeline of the four mergeable kinds with pinned
// seeds so independently built instances merge.
func fedPipeline(t *testing.T, opts ...streamagg.Option) *streamagg.Pipeline {
	t.Helper()
	p := streamagg.NewPipeline()
	add := func(name string, kind streamagg.Kind, opts ...streamagg.Option) {
		t.Helper()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatal(err)
		}
	}
	add("hot", streamagg.KindFreq, streamagg.WithEpsilon(0.005))
	add("cm", streamagg.KindCountMin,
		append([]streamagg.Option{streamagg.WithEpsilon(1e-3), streamagg.WithSeed(7)}, opts...)...)
	add("dist", streamagg.KindCountMinRange,
		streamagg.WithUniverseBits(18), streamagg.WithEpsilon(0.002), streamagg.WithSeed(3))
	return p
}

func pipelineEnvelope(t *testing.T, p *streamagg.Pipeline, node string, epoch, seq uint64, mode Mode) *Envelope {
	t.Helper()
	payload, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return &Envelope{Node: node, Epoch: epoch, Seq: seq, Mode: mode, Payload: payload}
}

func feed(t *testing.T, p *streamagg.Pipeline, items []uint64) {
	t.Helper()
	if err := p.ProcessBatch(items); err != nil {
		t.Fatal(err)
	}
}

func TestRootApplyAndDedup(t *testing.T) {
	reg := metrics.NewRegistry()
	root := NewRoot(fedPipeline(t), reg)
	edge := fedPipeline(t)
	feed(t, edge, workload.Zipf(11, 10_000, 1.2, 1<<16))

	env := pipelineEnvelope(t, edge, "edge-1", 1, 1, ModeFull)
	if err := root.Apply(env); err != nil {
		t.Fatal(err)
	}
	if got := root.View().StreamLen(); got != 10_000 {
		t.Fatalf("view StreamLen = %d after first push", got)
	}

	// Exact replay: StaleError with Duplicate, view untouched.
	err := root.Apply(env)
	var serr *StaleError
	if !errors.As(err, &serr) || !serr.Duplicate || !errors.Is(err, ErrStale) {
		t.Fatalf("replay: %v, want duplicate StaleError", err)
	}
	if serr.Reason() != "duplicate" {
		t.Fatalf("Reason() = %q", serr.Reason())
	}
	if got := root.View().StreamLen(); got != 10_000 {
		t.Fatalf("view StreamLen = %d after replay, double-counted", got)
	}

	// Out-of-order straggler: stale, not duplicate.
	feed(t, edge, workload.Zipf(12, 1000, 1.2, 1<<16))
	if err := root.Apply(pipelineEnvelope(t, edge, "edge-1", 1, 5, ModeFull)); err != nil {
		t.Fatal(err)
	}
	err = root.Apply(pipelineEnvelope(t, edge, "edge-1", 1, 3, ModeFull))
	if !errors.As(err, &serr) || serr.Duplicate || serr.Reason() != "stale" {
		t.Fatalf("straggler: %v, want non-duplicate StaleError", err)
	}
	// Older epoch loses even with a higher seq.
	err = root.Apply(pipelineEnvelope(t, edge, "edge-1", 0, 99, ModeFull))
	if !errors.As(err, &serr) {
		t.Fatalf("old epoch: %v, want StaleError", err)
	}
	// Newer epoch wins with any seq: a restarted edge moves forward.
	if err := root.Apply(pipelineEnvelope(t, edge, "edge-1", 2, 1, ModeFull)); err != nil {
		t.Fatalf("epoch bump: %v", err)
	}

	nodes := root.Nodes()
	if len(nodes) != 1 || nodes[0].Node != "edge-1" || nodes[0].Epoch != 2 || nodes[0].Seq != 1 {
		t.Fatalf("Nodes() = %+v", nodes)
	}
	if !nodes[0].HasContribution || nodes[0].ContributionLen != 11_000 {
		t.Fatalf("Nodes() contribution = %+v", nodes[0])
	}
}

// TestRootNodeSeriesCap: node IDs arrive off the wire, so only the
// first maxNodeSeries nodes get per-node series. Every later node shares
// one node="overflow" series and still has each push applied.
func TestRootNodeSeriesCap(t *testing.T) {
	const nodes = maxNodeSeries + 8
	pipe := func() *streamagg.Pipeline {
		p := streamagg.NewPipeline()
		if _, err := p.Add("cm", streamagg.KindCountMin, streamagg.WithEpsilon(0.01), streamagg.WithSeed(7)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	reg := metrics.NewRegistry()
	root := NewRoot(pipe(), reg)
	var total int64
	for i := 0; i < nodes; i++ {
		edge := pipe()
		items := workload.Zipf(int64(i), 100+i, 1.2, 1<<10)
		feed(t, edge, items)
		total += int64(len(items))
		if err := root.Apply(pipelineEnvelope(t, edge, fmt.Sprintf("edge-%02d", i), 1, 1, ModeFull)); err != nil {
			t.Fatal(err)
		}
		if i >= maxNodeSeries { // an overflow node's second push replaces its first
			feed(t, edge, items)
			total += int64(len(items))
			if err := root.Apply(pipelineEnvelope(t, edge, fmt.Sprintf("edge-%02d", i), 1, 2, ModeFull)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var scrape bytes.Buffer
	if err := reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	var perNode, overflow, staleness int
	for _, line := range strings.Split(scrape.String(), "\n") {
		switch {
		case strings.HasPrefix(line, `streamagg_federation_node_last_seq{node="overflow"}`):
			overflow++
		case strings.HasPrefix(line, `streamagg_federation_node_last_seq{node=`):
			perNode++
		case strings.HasPrefix(line, `streamagg_federation_node_staleness_seconds{node=`):
			staleness++
		}
	}
	if perNode != maxNodeSeries || overflow != 1 || staleness > maxNodeSeries {
		t.Fatalf("after %d nodes: %d per-node last_seq series, %d overflow, %d staleness; want %d, 1, <= %d",
			nodes, perNode, overflow, staleness, maxNodeSeries, maxNodeSeries)
	}

	for i, st := range root.Nodes() {
		wantSeq := uint64(1)
		if i >= maxNodeSeries {
			wantSeq = 2
		}
		if st.Seq != wantSeq || !st.HasContribution {
			t.Fatalf("%s: seq %d, contribution %v; want seq %d applied", st.Node, st.Seq, st.HasContribution, wantSeq)
		}
	}
	if got := root.View().StreamLen(); got != total {
		t.Fatalf("view StreamLen = %d, want %d", got, total)
	}
}

// TestRootFullReplacesNotAccumulates: repeated full pushes from one node
// overlay only the latest state — the view never double-counts.
func TestRootFullReplacesNotAccumulates(t *testing.T) {
	root := NewRoot(fedPipeline(t), nil)
	stream := workload.Zipf(21, 30_000, 1.2, 1<<16)
	for i, chunk := range [][]uint64{stream[:10_000], stream[:20_000], stream} {
		fresh := fedPipeline(t)
		feed(t, fresh, chunk)
		if err := root.Apply(pipelineEnvelope(t, fresh, "edge-1", 1, uint64(i+1), ModeFull)); err != nil {
			t.Fatal(err)
		}
		if got, want := root.View().StreamLen(), int64(len(chunk)); got != want {
			t.Fatalf("push %d: view StreamLen = %d, want %d", i+1, got, want)
		}
	}
	// The final view answers like a pipeline that saw the stream once.
	oracle := fedPipeline(t)
	feed(t, oracle, stream)
	view := root.View()
	for _, item := range []uint64{stream[0], 1, 999} {
		got, err := view.Estimate("cm", item)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracle.Estimate("cm", item)
		if got != want {
			t.Fatalf("cm.Estimate(%d) = %d view, %d oracle", item, got, want)
		}
	}
}

// TestRootMultiNodeView: contributions from several nodes overlay on a
// locally-fed base; the linear sketches match a directly-fed oracle
// exactly.
func TestRootMultiNodeView(t *testing.T) {
	base := fedPipeline(t)
	root := NewRoot(base, nil)
	oracle := fedPipeline(t)

	local := workload.Zipf(30, 5_000, 1.2, 1<<16)
	feed(t, base, local)
	feed(t, oracle, local)
	for i, seed := range []int64{31, 32, 33} {
		stream := workload.Zipf(seed, 8_000, 1.2, 1<<16)
		edge := fedPipeline(t)
		feed(t, edge, stream)
		feed(t, oracle, stream)
		node := string(rune('a' + i))
		if err := root.Apply(pipelineEnvelope(t, edge, node, 1, 1, ModeFull)); err != nil {
			t.Fatal(err)
		}
	}
	view := root.View()
	if got, want := view.StreamLen(), oracle.StreamLen(); got != want {
		t.Fatalf("view StreamLen = %d, want %d", got, want)
	}
	for _, item := range []uint64{1, 2, 17, 999, 65_000} {
		got, err := view.Estimate("cm", item)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracle.Estimate("cm", item); got != want {
			t.Fatalf("cm.Estimate(%d) = %d view, %d oracle", item, got, want)
		}
	}
	if got := len(root.Nodes()); got != 3 {
		t.Fatalf("Nodes() count = %d", got)
	}

	// Local ingest after the view was built invalidates the cache.
	more := workload.Zipf(39, 1_000, 1.2, 1<<16)
	feed(t, base, more)
	feed(t, oracle, more)
	if got, want := root.View().StreamLen(), oracle.StreamLen(); got != want {
		t.Fatalf("post-ingest view StreamLen = %d, want %d", got, want)
	}
}

func TestRootDeltaMergesIntoBase(t *testing.T) {
	base := fedPipeline(t)
	root := NewRoot(base, nil)
	delta := fedPipeline(t)
	feed(t, delta, workload.Zipf(41, 7_000, 1.2, 1<<16))
	if err := root.Apply(pipelineEnvelope(t, delta, "edge-1", 1, 1, ModeDelta)); err != nil {
		t.Fatal(err)
	}
	if got := base.StreamLen(); got != 7_000 {
		t.Fatalf("base StreamLen = %d after delta, want 7000", got)
	}
	// Delta-only nodes have no overlay: View returns the base itself.
	if root.View() != base {
		t.Fatal("View() built an overlay for a delta-only root")
	}
	if ns := root.Nodes(); len(ns) != 1 || ns[0].HasContribution {
		t.Fatalf("Nodes() = %+v", ns)
	}
}

func TestRootRejectsIncompatibleAndMalformed(t *testing.T) {
	reg := metrics.NewRegistry()
	root := NewRoot(fedPipeline(t), reg)

	// A pipeline with a different count-min seed can never merge.
	alien := fedPipeline(t, streamagg.WithSeed(1234))
	feed(t, alien, workload.Zipf(51, 1000, 1.2, 1<<14))
	err := root.Apply(pipelineEnvelope(t, alien, "edge-1", 1, 1, ModeFull))
	if !Incompatible(err) {
		t.Fatalf("incompatible push: %v, want ErrIncompatibleMerge", err)
	}
	// The watermark did not advance: a compatible retry under the same
	// seq lands.
	good := fedPipeline(t)
	feed(t, good, workload.Zipf(52, 1000, 1.2, 1<<14))
	if err := root.Apply(pipelineEnvelope(t, good, "edge-1", 1, 1, ModeFull)); err != nil {
		t.Fatalf("retry after incompatible: %v", err)
	}

	// Undecodable payloads wrap ErrBadEnvelope.
	err = root.Apply(&Envelope{Node: "edge-2", Epoch: 1, Seq: 1, Mode: ModeFull,
		Payload: []byte("not a checkpoint")})
	if !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("garbage payload: %v, want ErrBadEnvelope", err)
	}
	if err := root.Apply(nil); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("nil envelope: %v", err)
	}
	if err := root.Apply(&Envelope{Node: "", Payload: []byte("x")}); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("invalid envelope: %v", err)
	}

	// An incompatible delta also fails cleanly without poisoning the base.
	err = root.Apply(pipelineEnvelope(t, alien, "edge-3", 1, 1, ModeDelta))
	if !Incompatible(err) {
		t.Fatalf("incompatible delta: %v", err)
	}
}

// TestRootSingleAggregateEnvelope: an Agg-tagged envelope carries one
// aggregate's checkpoint and merges into the matching member only.
func TestRootSingleAggregateEnvelope(t *testing.T) {
	base := fedPipeline(t)
	root := NewRoot(base, nil)
	agg, err := streamagg.New(streamagg.KindCountMin,
		streamagg.WithEpsilon(1e-3), streamagg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Zipf(61, 5_000, 1.2, 1<<14)
	if err := agg.ProcessBatch(stream); err != nil {
		t.Fatal(err)
	}
	payload, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{Node: "edge-1", Epoch: 1, Seq: 1, Mode: ModeFull, Agg: "cm", Payload: payload}
	if err := root.Apply(env); err != nil {
		t.Fatal(err)
	}
	view := root.View()
	if got, err := view.Value("cm"); err != nil || got != int64(len(stream)) {
		t.Fatalf("cm.Value() = %d, %v; want %d", got, err, len(stream))
	}
	// Wrong target name: nothing to merge with.
	env2 := &Envelope{Node: "edge-1", Epoch: 1, Seq: 2, Mode: ModeFull, Agg: "nosuch", Payload: payload}
	if err := root.Apply(env2); !Incompatible(err) {
		t.Fatalf("unknown agg target: %v, want ErrIncompatibleMerge", err)
	}
}

// TestRootViewCache: repeated quiet-period View calls reuse the cached
// merge instead of rebuilding.
func TestRootViewCache(t *testing.T) {
	reg := metrics.NewRegistry()
	root := NewRoot(fedPipeline(t), reg)
	edge := fedPipeline(t)
	feed(t, edge, workload.Zipf(71, 2_000, 1.2, 1<<14))
	if err := root.Apply(pipelineEnvelope(t, edge, "edge-1", 1, 1, ModeFull)); err != nil {
		t.Fatal(err)
	}
	first := root.View()
	if root.View() != first || root.View() != first {
		t.Fatal("quiet-period View() rebuilt instead of reusing the cache")
	}
	hits := reg.Counter("streamagg_federation_view_cache_hits_total",
		"Global-view queries served from the cached merge.")
	if hits.Value() < 2 {
		t.Fatalf("view cache hits = %d, want >= 2", hits.Value())
	}
	root.Invalidate()
	second := root.View()
	if second == first {
		t.Fatal("View() served the cached merge after Invalidate")
	}
	if !bytes.Equal(mustMarshal(t, first), mustMarshal(t, second)) {
		t.Fatal("rebuilt view differs from the invalidated one")
	}
}

func mustMarshal(t *testing.T, p *streamagg.Pipeline) []byte {
	t.Helper()
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
