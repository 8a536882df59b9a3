package streamagg

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cms"
	"repro/internal/hist"
	"repro/internal/workload"
)

// histKinds is the demo trio plus a CountSketch: every kind that ingests
// the pipeline's shared histogram.
var histKinds = []struct {
	name string
	kind Kind
	opts []Option
}{
	{"hot", KindFreq, []Option{WithEpsilon(0.01)}},
	{"sketch", KindCountMin, []Option{WithEpsilon(0.005), WithSeed(7)}},
	{"dist", KindCountMinRange, []Option{WithUniverseBits(20), WithEpsilon(0.02), WithSeed(3)}},
	{"signed", KindCountSketch, []Option{WithEpsilon(0.1), WithSeed(9)}},
}

func newHistPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p := NewPipeline()
	for _, k := range histKinds {
		if _, err := p.Add(k.name, k.kind, k.opts...); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// answers is every query verb's reply on a histKinds pipeline, in a form
// that compares (and serializes) exactly.
type answers struct {
	StreamLen    int64
	Estimates    map[string][]int64 // per point-estimating member, one per probe
	Values       map[string]int64
	HeavyHitters []ItemCount
	TopK         []ItemCount
	RangeCounts  []int64
	Quantiles    []uint64
}

func queryAll(t testing.TB, p *Pipeline, probes []uint64) answers {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	a := answers{StreamLen: p.StreamLen(), Estimates: map[string][]int64{}, Values: map[string]int64{}}
	for _, name := range []string{"hot", "sketch", "signed"} {
		for _, item := range probes {
			e, err := p.Estimate(name, item)
			must(err)
			a.Estimates[name] = append(a.Estimates[name], e)
		}
	}
	for _, name := range []string{"sketch", "dist"} {
		v, err := p.Value(name)
		must(err)
		a.Values[name] = v
	}
	var err error
	a.HeavyHitters, err = p.HeavyHitters("hot", 0.02)
	must(err)
	a.TopK, err = p.TopK("hot", 25)
	must(err)
	for _, r := range [][2]uint64{{0, 0}, {0, 1<<20 - 1}, {1, 1000}, {4096, 8191}, {77, 77}, {1 << 19, 1<<20 - 1}} {
		c, err := p.RangeCount("dist", r[0], r[1])
		must(err)
		a.RangeCounts = append(a.RangeCounts, c)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v, err := p.Quantile("dist", q)
		must(err)
		a.Quantiles = append(a.Quantiles, v)
	}
	return a
}

func counterSet(t testing.TB, f *FreqEstimator) map[uint64]int64 {
	t.Helper()
	m := map[uint64]int64{}
	for _, e := range f.impl.Entries() {
		if _, dup := m[e.Item]; dup {
			t.Fatalf("item %d has two Misra-Gries counters", e.Item)
		}
		m[e.Item] = e.Freq
	}
	return m
}

// TestPipelineSharedHistogramMatchesStandalone: feeding a pipeline (one
// histogram per minibatch, shared read-only by four goroutines) must
// leave every member in exactly the state it reaches when fed the same
// batches on its own — sketch cells equal cell for cell, Misra-Gries
// counters equal as a set, stream positions equal, and all verbs
// answering identically. Batch sizes cover the empty batch, the inline
// (unforked) paths, batches long enough for the members to run on
// goroutines of their own, and the sort-based fallback above the
// resident table's cap. Run under -race, it is also the check on the
// shared slice.
func TestPipelineSharedHistogramMatchesStandalone(t *testing.T) {
	sizes := []int{0, 1, 63, 8192, 1<<17 + 1, 63, 20000}
	if testing.Short() {
		sizes = []int{0, 1, 63, 8192, 20000, 63} // 20000: long enough to fan out across goroutines
	}
	for _, dist := range []struct {
		name string
		gen  func(seed int64, n int) []uint64
	}{
		{"zipf", func(seed int64, n int) []uint64 { return workload.Zipf(seed, n, 1.1, 1<<18) }},
		{"uniform", func(seed int64, n int) []uint64 { return workload.Uniform(seed, n, 1<<20) }},
	} {
		t.Run(dist.name, func(t *testing.T) {
			piped := newHistPipeline(t)
			alone := newHistPipeline(t) // never fed as a pipeline: its members are fed one by one
			var all []uint64
			for i, n := range sizes {
				batch := dist.gen(int64(100+i), n)
				all = append(all, batch...)
				if err := piped.ProcessBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, name := range alone.Names() {
					agg, _ := alone.Get(name)
					if err := agg.ProcessBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, k := range histKinds {
				pa, _ := piped.Get(k.name)
				sa, _ := alone.Get(k.name)
				if pa.StreamLen() != sa.StreamLen() || pa.StreamLen() != int64(len(all)) {
					t.Fatalf("%s: StreamLen %d piped, %d standalone, want %d", k.name, pa.StreamLen(), sa.StreamLen(), len(all))
				}
				if tc, ok := pa.(TotalCounter); ok {
					if got, want := tc.TotalCount(), sa.(TotalCounter).TotalCount(); got != want || got != int64(len(all)) {
						t.Fatalf("%s: TotalCount %d piped, %d standalone, want %d", k.name, got, want, len(all))
					}
				}
				switch pa := pa.(type) {
				case *FreqEstimator:
					if got, want := counterSet(t, pa), counterSet(t, sa.(*FreqEstimator)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Misra-Gries counters differ: %d piped, %d standalone", k.name, len(got), len(want))
					}
				case *CountMin:
					if !reflect.DeepEqual(pa.impl.State().Cells, sa.(*CountMin).impl.State().Cells) {
						t.Fatalf("%s: cells differ", k.name)
					}
				case *CountMinRange:
					pl, sl := pa.impl.State().Levels, sa.(*CountMinRange).impl.State().Levels
					for l := range sl {
						if !reflect.DeepEqual(pl[l].Cells, sl[l].Cells) || pl[l].M != sl[l].M {
							t.Fatalf("%s: level %d differs", k.name, l)
						}
					}
				case *CountSketch:
					if !reflect.DeepEqual(pa.impl.State().Cells, sa.(*CountSketch).impl.State().Cells) {
						t.Fatalf("%s: cells differ", k.name)
					}
				}
			}

			probes := append([]uint64{0, 1, 2, 3, 1 << 19, 1<<20 - 1, 1 << 40}, all[:20]...)
			got, want := queryAll(t, piped, probes), queryAll(t, alone, probes)
			want.StreamLen = int64(len(all)) // only Pipeline.ProcessBatch advances the pipeline's own position
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("answers differ:\npiped      %s\nstandalone %s", gj, wj)
			}
		})
	}
}

// TestPipelineBuildsNoHistogramForRawMembers: a pipeline whose members
// all need the raw items must not pay for a histogram.
func TestPipelineBuildsNoHistogramForRawMembers(t *testing.T) {
	p := NewPipeline()
	if _, err := p.Add("ones", KindBasicCounter, WithWindow(1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add("sharded", KindCountMin, WithShards(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.ProcessBatch(workload.Uniform(1, 4096, 1<<12)); err != nil {
		t.Fatal(err)
	}
	if p.histSeed != 0 {
		t.Fatal("pipeline built a histogram no member consumes")
	}
	if _, err := p.Add("hot", KindFreq); err != nil {
		t.Fatal(err)
	}
	if err := p.ProcessBatch([]uint64{5, 5, 9}); err != nil {
		t.Fatal(err)
	}
	if e, err := p.Estimate("hot", 5); err != nil || e != 2 || p.histSeed != 1 {
		t.Fatalf("member registered after the first batch: estimate %d, %v, %d histograms", e, err, p.histSeed)
	}
}

// TestPipelineHistogramIsReadOnlyToMembers: members receive the same
// slice; none may write to it.
func TestPipelineHistogramIsReadOnlyToMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := newHistPipeline(t)
	for round := 0; round < 3; round++ { // later rounds exercise pruning and the roll-up's reused buffers
		items := make([]uint64, 5000)
		for i := range items {
			items[i] = uint64(rng.Intn(3000))
		}
		var b hist.Builder
		h := b.Build(items, 1)
		want := append([]hist.Entry(nil), h...)
		for _, m := range p.members {
			m.hist.processHist(len(items), h)
			if !reflect.DeepEqual(h, want) {
				t.Fatalf("%s modified the shared histogram", m.name)
			}
		}
	}
}

var writeParentFixture = flag.Bool("write-parent-fixture", false,
	"regenerate testdata/parent_pipeline.* from this checkout (run it on the commit the fixture should pin)")

// parentFixture is what TestParentCheckpointRestores pins: a checkpoint
// of a histKinds pipeline and its answers, both produced by the commit
// before ingestion was rewritten around the shared histogram
// (aa1d665), plus that commit's answers after one more batch.
type parentFixture struct {
	Before, After answers
}

// assertDerivedScheme decodes the count-min, count-sketch and every
// count-min-range level state in a histKinds pipeline checkpoint and
// requires hash scheme 1, the only one that restores: the fixture must
// not depend on a scheme that is gone.
func assertDerivedScheme(t *testing.T, ckpt []byte) {
	t.Helper()
	var ps pipelineState
	if _, err := openLegacy(kindPipeline, ckpt, &ps); err != nil {
		t.Fatal(err)
	}
	var states []cms.State
	for i, kind := range ps.Kinds {
		switch Kind(kind) {
		case KindCountMin, KindCountSketch:
			var st cms.State
			if _, err := openLegacy(Kind(kind), ps.Checkpoints[i], &st); err != nil {
				t.Fatal(err)
			}
			states = append(states, st)
		case KindCountMinRange:
			var rs cms.RangeState
			if _, err := openLegacy(Kind(kind), ps.Checkpoints[i], &rs); err != nil {
				t.Fatal(err)
			}
			states = append(states, rs.Levels...)
		}
	}
	if want := 2 + 21; len(states) != want { // count-min, count-sketch, 2^20 universe: 21 levels
		t.Fatalf("fixture has %d linear states, want %d", len(states), want)
	}
	for i, st := range states {
		if st.Scheme != 1 {
			t.Fatalf("fixture linear state %d has hash scheme %d, want 1", i, st.Scheme)
		}
	}
}

func fixtureStream() (batches [][]uint64, more, probes []uint64) {
	stream := workload.Zipf(2024, 3*8192+100, 1.1, 1<<18)
	more = workload.Zipf(2025, 5000, 1.1, 1<<18)
	probes = append([]uint64{0, 1, 2, 3, 1 << 19, 1<<20 - 1, 1 << 40}, stream[:20]...)
	return workload.Batches(stream, 8192), more, probes
}

// TestParentCheckpointRestores: the checkpoint format and the meaning of
// every field in it are unchanged — a checkpoint written by the parent
// commit restores, answers all verbs as the parent did, and after
// ingesting one more batch still answers as the parent did after that
// batch (so the restored state is not merely readable but continues
// identically).
func TestParentCheckpointRestores(t *testing.T) {
	ckptPath := filepath.Join("testdata", "parent_pipeline.ckpt")
	answersPath := filepath.Join("testdata", "parent_pipeline.json")
	batches, more, probes := fixtureStream()
	if *writeParentFixture {
		p := newHistPipeline(t)
		for _, b := range batches {
			if err := p.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		ckpt, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fx := parentFixture{Before: queryAll(t, p, probes)}
		if err := p.ProcessBatch(more); err != nil {
			t.Fatal(err)
		}
		fx.After = queryAll(t, p, probes)
		data, err := json.MarshalIndent(fx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptPath, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(answersPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(answersPath)
	if err != nil {
		t.Fatal(err)
	}
	var want parentFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	assertDerivedScheme(t, ckpt)
	p, err := UnmarshalPipeline(ckpt)
	if err != nil {
		t.Fatalf("parent checkpoint does not restore: %v", err)
	}
	check := func(stage string, want answers) {
		t.Helper()
		if got := queryAll(t, p, probes); !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			t.Fatalf("%s: answers differ from the parent commit's:\ngot  %s\nwant %s", stage, gj, wj)
		}
	}
	check("restored", want.Before)
	if err := p.ProcessBatch(more); err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("restored + %d items", len(more)), want.After)
}
