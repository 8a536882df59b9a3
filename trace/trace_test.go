package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	span := tr.Start("root", SpanContext{})
	if span == nil {
		t.Fatal("sampled tracer returned nil span")
	}
	defer span.End()
	sc := span.Context()
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q has wrong shape", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own rendering", h)
	}
	if got != sc {
		t.Fatalf("round trip %+v != %+v", got, sc)
	}
	// Unsampled flag round-trips too.
	sc.Sampled = false
	if got, ok := ParseTraceparent(sc.Traceparent()); !ok || got.Sampled {
		t.Fatalf("unsampled traceparent round trip = %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // truncated
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // bad hex flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// A future version with extra fields after the flags is accepted.
	ok := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if sc, accepted := ParseTraceparent(ok); !accepted || !sc.Sampled {
		t.Errorf("ParseTraceparent(%q) = %+v accepted=%v, want sampled join", ok, sc, accepted)
	}
}

func TestSamplingRates(t *testing.T) {
	never := New(Config{SampleRate: 0})
	for i := 0; i < 1000; i++ {
		if s := never.Start("x", SpanContext{}); s != nil {
			t.Fatal("rate-0 tracer sampled a root span")
		}
	}
	always := New(Config{SampleRate: 1})
	for i := 0; i < 100; i++ {
		s := always.Start("x", SpanContext{})
		if s == nil {
			t.Fatal("rate-1 tracer skipped a root span")
		}
		s.End()
	}
	half := New(Config{SampleRate: 0.5})
	hits := 0
	for i := 0; i < 4000; i++ {
		if s := half.Start("x", SpanContext{}); s != nil {
			hits++
			s.End()
		}
	}
	if hits < 1500 || hits > 2500 {
		t.Fatalf("rate-0.5 sampled %d/4000", hits)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	span := tr.Start("x", SpanContext{})
	if span != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every method must be a no-op on the nil span.
	span.SetAttr("k", "v")
	span.SetInt("n", 1)
	span.End()
	if sc := span.Context(); sc.IsValid() {
		t.Fatal("nil span has a valid context")
	}
	if span.TraceIDString() != "" || span.LogArgs() != nil {
		t.Fatal("nil span leaks identity")
	}
	if tr.Child("y", SpanContext{}) != nil {
		t.Fatal("nil tracer built a child")
	}
	tr.SetSampleRate(1)
	if tr.SampleRate() != 0 {
		t.Fatal("nil tracer has a rate")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestChildJoinsOnlySampledParents(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	root := tr.Start("root", SpanContext{})
	defer root.End()
	child := tr.Child("child", root.Context())
	if child == nil {
		t.Fatal("child of sampled parent is nil")
	}
	defer child.End()
	if child.data.Trace != root.data.Trace {
		t.Fatal("child did not join the parent's trace")
	}
	if child.data.Parent != root.data.ID {
		t.Fatal("child does not point at its parent span")
	}
	// Child never roots a trace: invalid or unsampled parents yield nil
	// even at sampling rate 1.
	if tr.Child("orphan", SpanContext{}) != nil {
		t.Fatal("Child rooted a trace from an invalid parent")
	}
	unsampled := root.Context()
	unsampled.Sampled = false
	if tr.Child("x", unsampled) != nil {
		t.Fatal("Child recorded under an unsampled parent")
	}
	// Start honors a sampled parent even when the local rate is 0 — the
	// cross-hop join rule.
	cold := New(Config{SampleRate: 0})
	joined := cold.Start("remote", root.Context())
	if joined == nil {
		t.Fatal("rate-0 tracer refused a sampled caller's trace")
	}
	defer joined.End()
	if joined.data.Trace != root.data.Trace {
		t.Fatal("joined span is on the wrong trace")
	}
}

func TestAttrBoundsAndRing(t *testing.T) {
	tr := New(Config{SampleRate: 1, RingSize: 4})
	s := tr.Start("attrs", SpanContext{})
	for i := 0; i < MaxAttrs+3; i++ {
		s.SetInt("k", int64(i))
	}
	s.End()
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("retained %d spans, want 1", len(snap))
	}
	if got := len(snap[0].Attrs()); got != MaxAttrs {
		t.Fatalf("span holds %d attrs, want %d", got, MaxAttrs)
	}
	if snap[0].Dropped != 3 {
		t.Fatalf("dropped %d attrs, want 3", snap[0].Dropped)
	}
	// Ring keeps the newest spans, oldest first in the snapshot.
	for i := 0; i < 6; i++ {
		sp := tr.Start("s", SpanContext{})
		sp.SetInt("i", int64(i))
		sp.End()
	}
	snap = tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring retained %d, want 4", len(snap))
	}
	if snap[len(snap)-1].Attrs()[0].Value != "5" {
		t.Fatalf("newest span attr = %v, want 5", snap[len(snap)-1].Attrs())
	}
}

func TestTracesGroupingAndFilters(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	// Trace A: root + two children.
	rootA := tr.Start("http.ingest", SpanContext{})
	time.Sleep(2 * time.Millisecond)
	childA := tr.Child("ingest.flush", rootA.Context())
	childA.End()
	grandA := tr.Child("sink.apply", childA.Context())
	grandA.End()
	rootA.End()
	// Trace B: a single fast span.
	rootB := tr.Start("http.healthz", SpanContext{})
	rootB.End()

	all := tr.Traces(0, "", 0)
	if len(all) != 2 {
		t.Fatalf("got %d traces, want 2", len(all))
	}
	var a *TraceJSON
	for i := range all {
		if all[i].Root == "http.ingest" {
			a = &all[i]
		}
	}
	if a == nil {
		t.Fatalf("trace A missing from %+v", all)
	}
	if len(a.Spans) != 3 {
		t.Fatalf("trace A has %d spans, want 3", len(a.Spans))
	}
	if a.TraceID != rootA.data.Trace.String() {
		t.Fatal("trace A reported under the wrong ID")
	}

	// handler filter keeps only traces containing the named span.
	if got := tr.Traces(0, "sink.apply", 0); len(got) != 1 || got[0].Root != "http.ingest" {
		t.Fatalf("handler filter = %+v, want only trace A", got)
	}
	if got := tr.Traces(0, "nosuch", 0); len(got) != 0 {
		t.Fatalf("bogus handler filter matched %d traces", len(got))
	}
	// min-duration filter drops the fast trace.
	if got := tr.Traces(time.Millisecond, "", 0); len(got) != 1 || got[0].Root != "http.ingest" {
		t.Fatalf("min-duration filter = %+v, want only trace A", got)
	}
	// limit caps the result, newest-first.
	if got := tr.Traces(0, "", 1); len(got) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(got))
	}
}

func TestHandlerJSON(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	s := tr.Start("http.ingest", SpanContext{})
	s.SetAttr("method", "POST")
	s.End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?handler=http.ingest", nil))
	if rec.Code != 200 {
		t.Fatalf("handler = %d", rec.Code)
	}
	var resp struct {
		SampleRate float64     `json:"sample_rate"`
		Traces     []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SampleRate != 1 || len(resp.Traces) != 1 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Traces[0].Spans[0].Attrs["method"] != "POST" {
		t.Fatalf("attrs lost: %+v", resp.Traces[0].Spans[0])
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=abc", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min_ms = %d, want 400", rec.Code)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	span := tr.Start("x", SpanContext{})
	ctx := ContextWithSpan(context.Background(), span)
	if SpanFromContext(ctx) != span {
		t.Fatal("span lost in context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context has a span")
	}
	// Nil spans don't allocate a context layer.
	base := context.Background()
	if ContextWithSpan(base, nil) != base {
		t.Fatal("nil span wrapped the context")
	}
}

// TestDisabledPathZeroAllocs pins the tracing-off invariant the ingest
// hot path depends on: a rate-0 root decision, a Child with no sampled
// parent, and every nil-span method must not allocate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	var sink *Span
	allocs := testing.AllocsPerRun(10000, func() {
		sink = tr.Start("x", SpanContext{})
		sink.SetAttr("k", "v")
		c := tr.Child("y", sink.Context())
		c.SetInt("n", 1)
		c.End()
		sink.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.2f objects/op, want 0", allocs)
	}
}
