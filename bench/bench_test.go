package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndQuartiles(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// Expected values are Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

// Ten one-second slices of steady traffic, one of them hit by a stall: the
// slice-median estimators must report the steady figure.
func TestSliceMedianIgnoresOneBadSlice(t *testing.T) {
	var samples []sample
	for sec := 0; sec < 10; sec++ {
		n, lat := 100, 2*time.Millisecond
		if sec == 4 {
			n, lat = 7, 900*time.Millisecond
		}
		for i := 0; i < n; i++ {
			at := time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{at: at, lat: lat, items: 512})
		}
	}
	samples = append(samples, sample{at: -time.Second, items: 1 << 30}, sample{at: 10 * time.Second, items: 1 << 30})
	if got := sliceRate(samples, 10*time.Second, time.Second); got != 100*512 {
		t.Errorf("sliceRate = %v items/s, want %v", got, 100*512)
	}
	if got := sliceQuantileMs(samples, 10*time.Second, time.Second, 0.99); got != 2 {
		t.Errorf("slice p99 = %v ms, want 2", got)
	}
	if n, items := inWindow(samples, 10*time.Second); n != 907 || items != 907*512 {
		t.Errorf("inWindow = %d samples, %d items; want 907 and %d", n, items, 907*512)
	}
	// A window shorter than one slice is a single slice, not zero.
	if got := len(cutSlices(samples, 2*time.Second, 3*time.Second)); got != 1 {
		t.Errorf("slices of a 2 s window by 3 s = %d, want 1", got)
	}
}

// One stalled reply must be charged to every operation it delays: latency
// runs from the intended send time, not from when the worker got round to it.
func TestOpenLoopChargesStallToDelayedOps(t *testing.T) {
	const rate, total, stalled = 200.0, 60, 5
	stall := 150 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	parts := openLoop(start, rate, total, 1, func(_, i int) (int, int, int) {
		if i == stalled {
			time.Sleep(stall)
		}
		return opIngest, 200, 1
	})
	recs := parts[0]
	if len(recs) != total {
		t.Fatalf("issued %d operations, want %d", len(recs), total)
	}
	var fromIntended, fromIssue int
	for i, r := range recs {
		if want := time.Duration(float64(i) * float64(time.Second) / rate); r.intended != want {
			t.Fatalf("operation %d intended at %v, want %v", i, r.intended, want)
		}
		if r.done-r.intended >= 50*time.Millisecond {
			fromIntended++
		}
		if r.done-r.issued >= 50*time.Millisecond {
			fromIssue++
		}
	}
	// The stall covers 30 send slots; those due in its first 100 ms wait
	// at least 50 ms each.
	if fromIssue != 1 {
		t.Errorf("%d operations were slow from their issue time, want only the stalled one", fromIssue)
	}
	if fromIntended < 15 {
		t.Errorf("%d operations were charged >= 50 ms from their intended time, want >= 15", fromIntended)
	}
	next := recs[stalled+1]
	if lat := next.done - next.intended; lat < stall-20*time.Millisecond {
		t.Errorf("the operation behind the stall was charged %v, want about %v", lat, stall)
	}
	log := newOpLog(parts, 0, time.Second)
	if got := log.stallMax(); got < stall {
		t.Errorf("stallMax = %v, want >= %v", got, stall)
	}
	if late := log.lateP99Ms(); late < 50 {
		t.Errorf("generator lateness p99 = %v ms, want the stall to show", late)
	}
}

func exactObservation(o *oracle) observed {
	obs := observed{streamLen: o.total, countMin: map[uint64]int64{}, freq: map[uint64]int64{}, heavy: map[uint64]bool{}}
	for _, k := range o.top(oracleTop) {
		obs.countMin[k], obs.freq[k] = o.counts[k], o.counts[k]
	}
	for k, f := range o.counts {
		if float64(f) > hhPhi*float64(o.total) {
			obs.heavy[uint64(k)] = true
		}
	}
	return obs
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	z := newZipf(keyUniverse, zipfSkew)
	o := newOracle()
	o.add(z.keys(streamSeed(1, "test"), 1<<16), 3)
	if o.total != 3<<16 {
		t.Fatalf("oracle total = %d, want %d", o.total, 3<<16)
	}
	if err := o.check(exactObservation(o), 0); err != nil {
		t.Fatalf("exact answers rejected: %v", err)
	}
	heaviest := o.top(1)[0]
	slack := int64(cmEpsilon * float64(o.total))
	for name, spoil := range map[string]func(*observed){
		"stream_len one short":     func(obs *observed) { obs.streamLen-- },
		"stream_len one over":      func(obs *observed) { obs.streamLen++ },
		"count-min underestimates": func(obs *observed) { obs.countMin[heaviest]-- },
		"count-min beyond eps*m":   func(obs *observed) { obs.countMin[heaviest] += slack + 2 },
		"freq overestimates":       func(obs *observed) { obs.freq[heaviest]++ },
		"freq beyond eps*m":        func(obs *observed) { obs.freq[heaviest] -= int64(freqEpsilon*float64(o.total)) + 2 },
		"missing estimate":         func(obs *observed) { delete(obs.countMin, heaviest) },
		"missing heavy hitter":     func(obs *observed) { delete(obs.heavy, heaviest) },
	} {
		obs := exactObservation(o)
		spoil(&obs)
		if err := o.check(obs, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Requests whose outcome is unknown widen stream_len by their items, no more.
	obs := exactObservation(o)
	obs.streamLen += 64
	if err := o.check(obs, 64); err != nil {
		t.Errorf("64 items in an unanswered request rejected: %v", err)
	}
	if err := o.check(obs, 63); err == nil {
		t.Error("stream_len beyond the unanswered items accepted")
	}
}

// The real pipeline against a deliberately wrong oracle: the check every
// workload ends with must fail, which is what makes a run exit non-zero.
func TestWrongOracleFailsTheRun(t *testing.T) {
	z := newZipf(keyUniverse, zipfSkew)
	keys := z.keys(streamSeed(2, "test"), 1<<15)
	pipe, err := newDemoPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.ProcessBatch(keys); err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	o.add(keys, 1)
	obs, err := observePipeline(pipe, o.top(oracleTop))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(obs, 0); err != nil {
		t.Fatalf("right oracle rejected the pipeline: %v", err)
	}
	o.add(keys[:1], 1) // the oracle now believes one more item was acknowledged
	if err := o.check(obs, 0); err == nil {
		t.Fatal("an oracle that is off by one item accepted the pipeline")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	rec := newRecorder()
	parent := rec.open("parent", 1, 0, 10)
	rec.call("child", 1, parent, 10, func() { time.Sleep(20 * time.Millisecond) })
	rec.call("child", 1, parent, 10, func() { time.Sleep(20 * time.Millisecond) })
	time.Sleep(10 * time.Millisecond)
	rec.close(parent)
	st := rec.stats()
	p, c := st["parent"], st["child"]
	if c.calls != 2 || c.items != 20 || p.calls != 1 {
		t.Fatalf("calls/items: parent %+v child %+v", p, c)
	}
	if p.self != p.total-c.total {
		t.Errorf("parent self = %v, want total %v - children %v", p.self, p.total, c.total)
	}
	if p.self < 10*time.Millisecond || p.self > p.total-40*time.Millisecond {
		t.Errorf("parent self = %v of %v with 40 ms in children", p.self, p.total)
	}
	rec.off = true
	if id := rec.call("ignored", 1, 0, 0, func() {}); id != 0 || len(rec.spans) != 3 {
		t.Errorf("a recorder switched off recorded a span")
	}
}

func TestGeneratorIsDeterministicAndSkewed(t *testing.T) {
	z := newZipf(keyUniverse, zipfSkew)
	a := z.keys(streamSeed(42, "ingest-http"), 1<<16)
	b := z.keys(streamSeed(42, "ingest-http"), 1<<16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different keys")
	}
	if c := z.keys(streamSeed(43, "ingest-http"), 1<<16); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated the same keys")
	}
	o := newOracle()
	o.add(a, 1)
	if top := o.top(2); top[0] != 0 || top[1] != 1 {
		t.Errorf("heaviest keys are %v, want ranks 0 and 1", top)
	}
	// Rank 0 carries 1/H(n, s) of the mass: about 0.136 for n = 2^18, s = 1.1.
	if share := float64(o.counts[0]) / float64(o.total); share < 0.12 || share > 0.15 {
		t.Errorf("rank 0 holds %.3f of the draws, want about 0.136", share)
	}
	if got := string(ingestBody([]uint64{5, 5, 9}, true)); got != `{"items":[5,5,9],"sync":true}` {
		t.Errorf("sync ingest body = %s", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the binary
// prints, within the contract's limits.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	spec, err := loadSpec(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || strings.Join(spec.Command, " ") != "bash bench/run.sh" {
		t.Errorf("paths %v, command %v", spec.Paths, spec.Command)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, the binary runs %v", names, workloadNames())
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(spec.PerLayer), len(spec.EndToEnd))
	}
	seen := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%v of %v)", setupBound, maxBound)
	}
	if runs := 4 + 22*len(spec.Workloads); spec.RunSeconds < 1 || spec.RunSeconds > 60 || runs*(spec.RunSeconds+15) > 3420 {
		t.Errorf("run_seconds %d: %d runs with set-up do not fit 3420 s", spec.RunSeconds, runs)
	}
	// Every value a run reports must be named; an unnamed one is refused.
	if _, err := report(spec.EndToEnd, map[string]float64{"setup_s": 1}, true); err == nil {
		t.Error("a run missing end-to-end metrics was reported")
	}
	if _, err := report(spec.PerLayer, map[string]float64{"no.such_metric": 1}, false); err == nil {
		t.Error("an unnamed metric was reported")
	}
}
