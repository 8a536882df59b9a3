package metrics

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", "code", "2xx")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	// Same name+labels returns the same instrument.
	if again := r.Counter("requests_total", "Total requests.", "code", "2xx"); again != c {
		t.Fatal("re-registering the same counter returned a new instrument")
	}
	// Same family, different labels: a distinct series.
	c4 := r.Counter("requests_total", "Total requests.", "code", "4xx")
	if c4 == c {
		t.Fatal("different label set returned the same instrument")
	}
	g := r.Gauge("queue_depth", "Depth.")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge value = %d, want 4", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("batch_items", "Batch sizes.", UnitItems)
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	buckets, count, sum := h.Snapshot()
	if count != 6 || sum != 1010 {
		t.Fatalf("count=%d sum=%d, want 6, 1010", count, sum)
	}
	// bit lengths: 0→0, 1→1, 2,3→2, 4→3, 1000→10
	want := []int64{1, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	if len(buckets) != len(want) {
		t.Fatalf("buckets=%v, want %v", buckets, want)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, buckets[i], want[i], buckets)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("flushes_total", "Flushed batches.", "cause", "size").Add(3)
	r.Counter("flushes_total", "Flushed batches.", "cause", "timer").Add(2)
	r.GaugeFunc("up", "Liveness.", func() float64 { return 1 })
	r.CounterFunc("hits_total", "Cache hits.", func() int64 { return 9 })
	h := r.Histogram("wait_seconds", "Wait time.", UnitSeconds)
	h.ObserveDuration(3 * time.Second)
	h.ObserveDuration(-time.Second) // clamps to 0

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP flushes_total Flushed batches.\n",
		"# TYPE flushes_total counter\n",
		`flushes_total{cause="size"} 3` + "\n",
		`flushes_total{cause="timer"} 2` + "\n",
		"# TYPE up gauge\n",
		"up 1\n",
		"hits_total 9\n",
		"# TYPE wait_seconds histogram\n",
		`wait_seconds_bucket{le="0"} 1` + "\n",
		`wait_seconds_bucket{le="+Inf"} 2` + "\n",
		"wait_seconds_sum 3\n",
		"wait_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "a_total 1") {
		t.Fatalf("body: %s", rec.Body.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.")
	h := r.Histogram("v_items", "V.", UnitItems)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if _, count, _ := h.Snapshot(); count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", count)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "E.", "path", `a"b\c`+"\n").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("escaping broken: %s", b.String())
	}
}

// Registration (GetOrCreate is a runtime API) must not race a
// concurrent scrape: WriteText snapshots the family tables under the
// registry lock. Run under -race in CI.
func TestConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			r.Counter("grow_total", "G.", "i", fmt.Sprint(i)).Inc()
			r.Histogram("grow_items", "G.", UnitItems, "i", fmt.Sprint(i)).Observe(uint64(i))
		}
	}()
	for {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// The instruments ride the ingest hot path; these benchmarks are the
// Go-side counterpart of bench/'s metrics.counter_add_ns and
// metrics.histogram_observe_ns probes.
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := Histogram{}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(4096)
		}
	})
}
