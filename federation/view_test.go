package federation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	streamagg "repro"
	"repro/internal/cms"
	"repro/internal/workload"
)

// propUniverse bounds every generated item, so the count-min-range
// member (bits = 10) accepts all of them.
const propUniverse = 1<<10 - 1

// propSpecs are the members of propPipeline: every mergeable kind, with
// small dimensions. hot is Misra–Gries (ε = 1/50), the rest are linear.
var propSpecs = []struct {
	name string
	kind streamagg.Kind
	opts []streamagg.Option
}{
	{"hot", streamagg.KindFreq, []streamagg.Option{streamagg.WithEpsilon(0.02)}},
	{"cm", streamagg.KindCountMin, []streamagg.Option{streamagg.WithEpsilon(0.01), streamagg.WithDelta(0.05), streamagg.WithSeed(7)}},
	{"dist", streamagg.KindCountMinRange, []streamagg.Option{streamagg.WithUniverseBits(10), streamagg.WithEpsilon(0.05), streamagg.WithSeed(3)}},
	{"sk", streamagg.KindCountSketch, []streamagg.Option{streamagg.WithEpsilon(0.1), streamagg.WithDelta(0.05), streamagg.WithSeed(5)}},
	{"shard", streamagg.KindCountMin, []streamagg.Option{streamagg.WithEpsilon(0.02), streamagg.WithSeed(11), streamagg.WithShards(4)}},
}

const propHotEps = 0.02

func propPipeline(t testing.TB) *streamagg.Pipeline {
	t.Helper()
	p := streamagg.NewPipeline()
	for _, s := range propSpecs {
		if _, err := p.Add(s.name, s.kind, s.opts...); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// propAggregate builds one propPipeline member on its own.
func propAggregate(t testing.TB, name string) streamagg.Aggregate {
	t.Helper()
	agg, ok := propPipeline(t).Get(name)
	if !ok {
		t.Fatalf("no member %q", name)
	}
	return agg
}

// frameBody splits a checkpoint frame (header layout in the root
// package's gate.go) into its stream length, its body and what follows
// the body, so a test can reach the cells.
func frameBody(t *testing.T, data []byte) (streamLen int64, body, rest []byte) {
	t.Helper()
	const headerSize = 28
	if len(data) < headerSize {
		t.Fatalf("frame of %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data[16:])
	if n > uint64(len(data)-headerSize) {
		t.Fatalf("frame body of %d bytes, %d remain", n, len(data)-headerSize)
	}
	return int64(binary.LittleEndian.Uint64(data[8:])), data[headerSize : headerSize+n], data[headerSize+n:]
}

// linearCells decodes a linear aggregate's checkpoint down to its
// dimensions, hash seeds, total and counters, dropping the rolling
// histogram salt, which depends on how the stream was batched and not on
// the stream.
func linearCells(t *testing.T, data []byte) any {
	t.Helper()
	kind, err := streamagg.CheckpointKind(data)
	if err != nil {
		t.Fatal(err)
	}
	streamLen, body, _ := frameBody(t, data)
	switch kind {
	case streamagg.KindCountMin:
		s, err := cms.DecodeSketch(body)
		if err != nil {
			t.Fatal(err)
		}
		st := s.State()
		st.Seed = 0
		return []any{streamLen, st}
	case streamagg.KindCountMinRange:
		r, err := cms.DecodeRange(body)
		if err != nil {
			t.Fatal(err)
		}
		st := r.State()
		for i := range st.Levels {
			st.Levels[i].Seed = 0
		}
		return []any{streamLen, st}
	case streamagg.KindCountSketch:
		s, err := cms.DecodeCountSketch(body)
		if err != nil {
			t.Fatal(err)
		}
		st := s.State()
		st.Seed = 0
		return []any{streamLen, st}
	case streamagg.KindSharded:
		// Body: a u32 shard count, then per shard an empty name (one
		// zero byte) and the shard's frame.
		out := []any{streamLen}
		for rest := body[4:]; len(rest) > 0; {
			shard := rest[1:]
			_, _, after := frameBody(t, shard)
			out = append(out, linearCells(t, shard[:len(shard)-len(after)]))
			rest = after
		}
		return out
	}
	t.Fatalf("linearCells: %s is not a linear kind", kind)
	return nil
}

func marshalAgg(t *testing.T, agg streamagg.Aggregate) []byte {
	t.Helper()
	data, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRootViewMatchesUnionProperty drives seeded random histories —
// full pushes that replace earlier ones, single-aggregate envelopes,
// delta pushes, local ingest into the base, and Invalidate — and after
// every step checks the view against an oracle: each linear member is
// cell-identical to one sketch of the union stream, and Misra–Gries is
// within ε·Σm of the exact counts with every ϕ-heavy key reported.
func TestRootViewMatchesUnionProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			checkRootHistory(t, seed, 40)
		})
	}
}

func checkRootHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	base := propPipeline(t)
	root := NewRoot(base, nil)
	// baseItems[name] is what the base member absorbed (local ingest and
	// deltas); contrib[node][name] is the node's latest full push.
	baseItems := map[string][]uint64{}
	contrib := map[string]map[string][]uint64{}
	contribLen := map[string]int64{}
	seq := map[string]uint64{}
	nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6"}

	stream := func() []uint64 {
		return workload.Zipf(rng.Int63(), 50+rng.Intn(1500), 1.1+rng.Float64(), propUniverse)
	}
	push := func(env *Envelope) {
		t.Helper()
		seq[env.Node]++
		env.Epoch, env.Seq = 1, seq[env.Node]
		if err := root.Apply(env); err != nil {
			t.Fatalf("seed %d: apply mode %d from %s: %v", seed, env.Mode, env.Node, err)
		}
	}
	for step := 0; step < steps; step++ {
		items := stream()
		var what string
		switch op := rng.Intn(10); {
		case op < 4: // full push of a whole pipeline, often a replacement
			node := nodes[rng.Intn(len(nodes))]
			p := propPipeline(t)
			feed(t, p, items)
			push(pipelineEnvelope(t, p, node, 0, 0, ModeFull))
			contrib[node] = map[string][]uint64{}
			for _, s := range propSpecs {
				contrib[node][s.name] = items
			}
			contribLen[node] = int64(len(items))
			what = "full " + node
		case op < 6: // full push of one aggregate: the node's other members go
			node := nodes[rng.Intn(len(nodes))]
			name := propSpecs[rng.Intn(len(propSpecs))].name
			agg := propAggregate(t, name)
			if err := agg.ProcessBatch(items); err != nil {
				t.Fatal(err)
			}
			push(&Envelope{Node: node, Mode: ModeFull, Agg: name, Payload: marshalAgg(t, agg)})
			contrib[node] = map[string][]uint64{name: items}
			contribLen[node] = 0
			what = "single " + name + " " + node
		case op < 7: // delta push: lands in the base
			p := propPipeline(t)
			feed(t, p, items)
			push(pipelineEnvelope(t, p, "delta", 0, 0, ModeDelta))
			for _, s := range propSpecs {
				baseItems[s.name] = append(baseItems[s.name], items...)
			}
			what = "delta"
		case op < 9: // local ingest into the base
			feed(t, base, items)
			for _, s := range propSpecs {
				baseItems[s.name] = append(baseItems[s.name], items...)
			}
			what = "local"
		default:
			root.Invalidate()
			what = "invalidate"
		}

		view := root.View()
		wantLen := base.StreamLen()
		for _, n := range contribLen {
			wantLen += n
		}
		if got := view.StreamLen(); got != wantLen {
			t.Fatalf("seed %d step %d (%s): view StreamLen = %d, want %d", seed, step, what, got, wantLen)
		}
		for _, s := range propSpecs {
			union := append([]uint64(nil), baseItems[s.name]...)
			for _, node := range nodes {
				union = append(union, contrib[node][s.name]...)
			}
			got, ok := view.Get(s.name)
			if !ok {
				t.Fatalf("seed %d: view lost member %q", seed, s.name)
			}
			if s.name == "hot" {
				checkMisraGries(t, seed, step, what, got, union)
				continue
			}
			oracle := propAggregate(t, s.name)
			if err := oracle.ProcessBatch(union); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(linearCells(t, marshalAgg(t, got)), linearCells(t, marshalAgg(t, oracle))) {
				t.Fatalf("seed %d step %d (%s): %s differs from the sketch of the union stream (%d items)",
					seed, step, what, s.name, len(union))
			}
		}
	}
}

// checkMisraGries asserts the merged-summary guarantee against exact
// counts: f − ε·m ≤ est ≤ f for every key, and every key with f ≥ ϕ·m
// among the heavy hitters.
func checkMisraGries(t *testing.T, seed int64, step int, what string, agg streamagg.Aggregate, union []uint64) {
	t.Helper()
	exact := map[uint64]int64{}
	for _, it := range union {
		exact[it]++
	}
	m := int64(len(union))
	if got := agg.StreamLen(); got != m {
		t.Fatalf("seed %d step %d (%s): hot StreamLen = %d, want %d", seed, step, what, got, m)
	}
	f := agg.(*streamagg.FreqEstimator)
	slack := int64(propHotEps * float64(m))
	for item := uint64(0); item <= propUniverse; item++ {
		est, truth := f.Estimate(item), exact[item]
		if est > truth || est < truth-slack {
			t.Fatalf("seed %d step %d (%s): hot.Estimate(%d) = %d outside [%d, %d]",
				seed, step, what, item, est, truth-slack, truth)
		}
	}
	const phi = 0.05
	reported := map[uint64]bool{}
	for _, ic := range f.HeavyHitters(phi) {
		reported[ic.Item] = true
	}
	for item, truth := range exact {
		if float64(truth) >= phi*float64(m) && !reported[item] {
			t.Fatalf("seed %d step %d (%s): heavy key %d (f = %d of %d) missing", seed, step, what, item, truth, m)
		}
	}
}

// TestRootViewHistoryIndependent: two roots end with the same
// contributions, reached in different arrival and replacement orders,
// and must serve byte-identical views — before and after Invalidate. A
// Misra–Gries merge depends on its order, so this holds only because
// the merge order is fixed by node ID, not by arrival or map order.
func TestRootViewHistoryIndependent(t *testing.T) {
	version := func(node string, v int) *streamagg.Pipeline {
		p := propPipeline(t)
		feed(t, p, workload.Zipf(int64(node[0])*10+int64(v), 3000, 1.05, propUniverse))
		return p
	}
	local := workload.Zipf(99, 4000, 1.1, propUniverse)
	type push struct {
		node string
		v    int
	}
	// The final version of every node is v = 9.
	orders := [][]push{
		{{"a", 1}, {"b", 9}, {"c", 1}, {"a", 9}, {"d", 9}, {"c", 9}, {"e", 9}},
		{{"e", 1}, {"d", 2}, {"c", 9}, {"e", 9}, {"b", 3}, {"a", 9}, {"d", 9}, {"b", 9}},
	}
	var views [][]byte
	for _, order := range orders {
		base := propPipeline(t)
		feed(t, base, local)
		root := NewRoot(base, nil)
		for i, p := range order {
			if err := root.Apply(pipelineEnvelope(t, version(p.node, p.v), p.node, 1, uint64(i+1), ModeFull)); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 {
			root.Invalidate()
			views = append(views, mustMarshal(t, root.View()))
		}
	}
	for i, v := range views[1:] {
		if !bytes.Equal(views[0], v) {
			t.Fatalf("view %d differs from view 0: the merged view depends on push history", i+1)
		}
	}
}

// TestRootViewStaleRace runs local ingest, full pushes and View readers
// concurrently (run it under -race). Once everything has quiesced, the
// view must hold the base plus every node's latest contribution: a view
// built while a local batch landed must not be cached as if it held
// that batch.
func TestRootViewStaleRace(t *testing.T) {
	base := propPipeline(t)
	root := NewRoot(base, nil)
	// Local ingest outlasts the pushes by tailBatches, so the last
	// changes are batches landing while readers rebuild.
	const nodes, pushes, tailBatches = 3, 30, 300
	payloads := make([][]byte, 4)
	for i := range payloads {
		p := propPipeline(t)
		feed(t, p, workload.Zipf(int64(i), 500*(i+1), 1.2, propUniverse))
		payloads[i] = mustMarshal(t, p)
	}
	latest := make([]int64, nodes) // StreamLen of each node's last applied push
	var pushers, readers sync.WaitGroup
	pushed, done := make(chan struct{}), make(chan struct{})
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		tail := 0
		for i := 0; tail < tailBatches; i++ {
			select {
			case <-pushed:
				tail++
			default:
			}
			if err := base.ProcessBatch(workload.Zipf(int64(1000+i), 64, 1.2, propUniverse)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for n := 0; n < nodes; n++ {
		pushers.Add(1)
		go func(n int) {
			defer pushers.Done()
			for s := 1; s <= pushes; s++ {
				k := (n + s) % len(payloads)
				err := root.Apply(&Envelope{Node: fmt.Sprint("edge-", n), Epoch: 1, Seq: uint64(s),
					Mode: ModeFull, Payload: payloads[k]})
				if err != nil {
					t.Error(err)
					return
				}
				latest[n] = int64(500 * (k + 1))
			}
		}(n)
	}
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				view := root.View()
				if _, err := view.Estimate("cm", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pushers.Wait()
	close(pushed)
	<-ingested
	close(done)
	readers.Wait()
	want := base.StreamLen()
	for _, n := range latest {
		want += n
	}
	if got := root.View().StreamLen(); got != want {
		t.Fatalf("quiesced view StreamLen = %d, want base %d + contributions = %d", got, base.StreamLen(), want)
	}
}

// TestRootRejectedPushLeavesViewUntouched: a push that fails the
// compatibility check changes neither the served view nor the watermark.
func TestRootRejectedPushLeavesViewUntouched(t *testing.T) {
	root := NewRoot(propPipeline(t), nil)
	edge := propPipeline(t)
	feed(t, edge, workload.Zipf(5, 2000, 1.2, propUniverse))
	if err := root.Apply(pipelineEnvelope(t, edge, "edge-1", 1, 1, ModeFull)); err != nil {
		t.Fatal(err)
	}
	before := mustMarshal(t, root.View())

	// Half-compatible: every member matches except count-sketch's seed.
	alien := streamagg.NewPipeline()
	for _, s := range propSpecs {
		opts := s.opts
		if s.name == "sk" {
			opts = append(append([]streamagg.Option(nil), opts...), streamagg.WithSeed(1234))
		}
		if _, err := alien.Add(s.name, s.kind, opts...); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, alien, workload.Zipf(6, 2000, 1.2, propUniverse))
	if err := root.Apply(pipelineEnvelope(t, alien, "edge-1", 1, 2, ModeFull)); !Incompatible(err) {
		t.Fatalf("half-compatible push: %v, want ErrIncompatibleMerge", err)
	}
	if err := root.Apply(pipelineEnvelope(t, alien, "edge-2", 1, 1, ModeFull)); !Incompatible(err) {
		t.Fatalf("half-compatible push from a new node: %v, want ErrIncompatibleMerge", err)
	}
	root.Invalidate()
	if !bytes.Equal(before, mustMarshal(t, root.View())) {
		t.Fatal("a rejected push changed the view")
	}
	var serr *StaleError
	if err := root.Apply(pipelineEnvelope(t, edge, "edge-1", 1, 1, ModeFull)); !errors.As(err, &serr) || !serr.Duplicate {
		t.Fatalf("replay of the last applied push: %v, want duplicate (watermark moved)", err)
	}
}

// TestRootIgnoresMembersTheBaseLacks: a member the root does not serve
// is neither checked nor summed, as Pipeline.Merge ignores it, so edges
// may push extras that disagree in kind or parameters, and change them
// from one push to the next — also a member the base loses to a restore
// after the root has summed it.
func TestRootIgnoresMembersTheBaseLacks(t *testing.T) {
	base := propPipeline(t)
	root := NewRoot(base, nil)
	edge := func(seed int64, kind streamagg.Kind, opts ...streamagg.Option) *streamagg.Pipeline {
		p := propPipeline(t)
		if _, err := p.Add("extra", kind, opts...); err != nil {
			t.Fatal(err)
		}
		feed(t, p, workload.Zipf(seed, 1000, 1.2, propUniverse))
		return p
	}
	pushes := []struct {
		node string
		p    *streamagg.Pipeline
	}{
		{"edge-1", edge(1, streamagg.KindCountMin, streamagg.WithEpsilon(0.01), streamagg.WithSeed(1))},
		{"edge-2", edge(2, streamagg.KindCountMin, streamagg.WithEpsilon(0.05), streamagg.WithSeed(2))},
		{"edge-3", edge(3, streamagg.KindFreq, streamagg.WithEpsilon(0.1))},
		{"edge-1", edge(4, streamagg.KindCountSketch, streamagg.WithEpsilon(0.1), streamagg.WithSeed(3))},
	}
	for i, ps := range pushes {
		if err := root.Apply(pipelineEnvelope(t, ps.p, ps.node, 1, uint64(i+1), ModeFull)); err != nil {
			t.Fatalf("push %d from %s: %v", i, ps.node, err)
		}
		root.View() // sums the served members, so the next push updates them
	}
	view := root.View()
	if _, ok := view.Get("extra"); ok {
		t.Fatal("the view serves a member the base lacks")
	}
	if got, want := view.StreamLen(), int64(3*1000); got != want {
		t.Fatalf("view StreamLen = %d, want %d", got, want)
	}

	// Restore the base without "cm"; then a cm of other parameters must
	// land. withCM is propPipeline with cm built from opts, or without cm
	// when there are none.
	withCM := func(cm ...streamagg.Option) *streamagg.Pipeline {
		p := streamagg.NewPipeline()
		for _, s := range propSpecs {
			opts := s.opts
			if s.name == "cm" {
				if cm == nil {
					continue
				}
				opts = cm
			}
			if _, err := p.Add(s.name, s.kind, opts...); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	if err := base.UnmarshalBinary(mustMarshal(t, withCM())); err != nil {
		t.Fatal(err)
	}
	root.Invalidate()
	alien := withCM(streamagg.WithEpsilon(0.2), streamagg.WithSeed(9))
	feed(t, alien, workload.Zipf(5, 1000, 1.2, propUniverse))
	if err := root.Apply(pipelineEnvelope(t, alien, "edge-2", 1, uint64(len(pushes)+1), ModeFull)); err != nil {
		t.Fatalf("push after the base lost cm: %v", err)
	}
	if _, ok := root.View().Get("cm"); ok {
		t.Fatal("the view serves cm after the base lost it")
	}
}
