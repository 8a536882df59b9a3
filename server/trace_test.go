package server

// Distributed-tracing gates for the serving layer: the middleware joins
// an incoming W3C traceparent, a sampled ingest's context rides the
// MPSC queue into the flush/WAL/apply spans, /debug/traces serves the
// result, /v1/stats links the slowest request back to its trace via the
// histogram exemplar, and — the acceptance drill — one trace ID spans
// edge ingest → federation push → root merge across two servers.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	streamagg "repro"
	"repro/federation"
	"repro/persist"
	"repro/trace"
)

// tracesResponse mirrors the /debug/traces JSON body.
type tracesResponse struct {
	SampleRate float64           `json:"sample_rate"`
	Traces     []trace.TraceJSON `json:"traces"`
}

func getTraces(t *testing.T, client *http.Client, base, query string) tracesResponse {
	t.Helper()
	var resp tracesResponse
	get(t, client, base+"/debug/traces"+query, &resp)
	return resp
}

// spanNames flattens one trace's span names for containment checks.
func spanNames(tr trace.TraceJSON) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	return names
}

// findTrace returns the first trace containing a span with the given
// name, or nil.
func findTrace(traces []trace.TraceJSON, span string) *trace.TraceJSON {
	for i := range traces {
		if spanNames(traces[i])[span] {
			return &traces[i]
		}
	}
	return nil
}

// TestServerTraceparentJoin: a rate-0 server must still record spans
// for requests whose caller sampled the trace — the cross-hop rule that
// makes federation traces work — and must record nothing otherwise.
func TestServerTraceparentJoin(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()

	// Default sampling is 0: plain requests leave no trace.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getTraces(t, client, ts.URL, ""); len(got.Traces) != 0 {
		t.Fatalf("rate-0 server recorded %d traces", len(got.Traces))
	}

	// A sampled caller's traceparent is joined regardless of local rate.
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got := getTraces(t, client, ts.URL, "")
	if len(got.Traces) != 1 {
		t.Fatalf("joined request recorded %d traces, want 1", len(got.Traces))
	}
	tr := got.Traces[0]
	if tr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("server rooted its own trace %s instead of joining the caller's", tr.TraceID)
	}
	if !spanNames(tr)[("http.healthz")] {
		t.Fatalf("trace is missing the handler span: %+v", tr)
	}
	// An unsampled traceparent must not record either.
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getTraces(t, client, ts.URL, ""); len(got.Traces) != 1 {
		t.Fatalf("unsampled traceparent changed the trace count to %d", len(got.Traces))
	}
}

// TestServerTraceBatchLifecycle: with sampling on and durability
// configured, one ingest request's trace must contain the whole batch
// lifecycle — handler, enqueue, flush (joined across the MPSC queue),
// WAL append, and sink apply — under a single trace ID, and the stats
// endpoint must link the slowest request to a recorded trace.
func TestServerTraceBatchLifecycle(t *testing.T) {
	_, ts := newTestServer(t,
		streamagg.WithTracer(trace.New(trace.Config{SampleRate: 1})),
		streamagg.WithDataDir(t.TempDir()), streamagg.WithFsync(persist.FsyncNever))
	client := ts.Client()

	ingestSync(t, client, ts.URL, []uint64{1, 2, 3, 4, 5})

	got := getTraces(t, client, ts.URL, "?handler=http.ingest")
	if len(got.Traces) == 0 {
		t.Fatal("no ingest trace recorded at sample rate 1")
	}
	tr := got.Traces[0]
	names := spanNames(tr)
	for _, want := range []string{
		"http.ingest", "ingest.enqueue", "ingest.flush", "persist.wal_append", "sink.apply",
	} {
		if !names[want] {
			t.Errorf("ingest trace %s is missing span %q (has %v)", tr.TraceID, want, names)
		}
	}
	// Spans parent correctly: flush's parent is the enqueue span.
	byName := make(map[string]trace.SpanJSON)
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if byName["ingest.flush"].ParentID != byName["ingest.enqueue"].SpanID {
		t.Errorf("flush parent = %s, want enqueue span %s",
			byName["ingest.flush"].ParentID, byName["ingest.enqueue"].SpanID)
	}
	if byName["sink.apply"].ParentID != byName["ingest.flush"].SpanID {
		t.Errorf("apply parent = %s, want flush span %s",
			byName["sink.apply"].ParentID, byName["ingest.flush"].SpanID)
	}

	// The exemplar bridge: /v1/stats names a slowest trace per handler,
	// and the ingest one must be a recorded trace ID.
	var stats struct {
		Slowest map[string]struct {
			TraceID string  `json:"trace_id"`
			Seconds float64 `json:"seconds"`
		} `json:"slowest"`
	}
	get(t, client, ts.URL+"/v1/stats", &stats)
	ex, ok := stats.Slowest["ingest"]
	if !ok || ex.TraceID == "" {
		t.Fatalf("stats slowest has no ingest exemplar: %+v", stats.Slowest)
	}
	found := false
	for _, rec := range getTraces(t, client, ts.URL, "").Traces {
		if rec.TraceID == ex.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("slowest ingest trace %s is not in the ring", ex.TraceID)
	}
}

// TestServerReadyz: liveness always answers 200; readiness fails with a
// reason during a restore replay and a graceful drain, and recovers
// when the restore window closes.
func TestServerReadyz(t *testing.T) {
	srv, ts := newTestServer(t)
	client := ts.Client()

	var rz struct{ Status, Reason string }
	get(t, client, ts.URL+"/readyz", &rz)
	if rz.Status != "ready" {
		t.Fatalf("fresh server readyz = %+v, want ready", rz)
	}

	// Simulate the restore replay window.
	reason := "restoring"
	srv.notReady.Store(&reason)
	resp, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := json.NewDecoder(resp.Body)
	var notReady struct{ Status, Reason string }
	if err := body.Decode(&notReady); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || notReady.Reason != "restoring" {
		t.Fatalf("restoring readyz = %d %+v, want 503/restoring", resp.StatusCode, notReady)
	}
	// Liveness is unaffected.
	var hz struct{ Status string }
	get(t, client, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz during restore = %+v", hz)
	}
	srv.notReady.Store(nil)
	get(t, client, ts.URL+"/readyz", &rz)
	if rz.Status != "ready" {
		t.Fatalf("readyz after restore = %+v, want ready", rz)
	}

	// Graceful shutdown drains: readiness fails first (the mux keeps
	// serving under httptest, standing in for in-flight requests).
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
}

// TestServerFederationTraceSingleID is the tracing acceptance drill:
// ingest at a sampled edge, push to a root, and verify the SAME trace
// ID covers the edge's handler/enqueue spans, the edge's push span, and
// the root's merge + apply spans — one distributed trace across two
// processes' ring buffers.
func TestServerFederationTraceSingleID(t *testing.T) {
	_, rootURL := fedServer(t, 0)
	edgeSrv, err := New(fedTestPipeline(t, 0),
		streamagg.WithTracer(trace.New(trace.Config{SampleRate: 1})))
	if err != nil {
		t.Fatal(err)
	}
	edgeTS := httptest.NewServer(edgeSrv.Handler())
	t.Cleanup(edgeTS.Close)
	t.Cleanup(func() { _ = edgeSrv.Ingestor().Close() })
	client := edgeTS.Client()

	// Ingest through HTTP so the handler records the sampled root span
	// the pusher will parent on.
	ingestSync(t, client, edgeTS.URL, []uint64{10, 20, 30, 20, 10})
	edgeIngestSC := edgeSrv.LastIngestContext()
	if !edgeIngestSC.IsValid() || !edgeIngestSC.Sampled {
		t.Fatalf("edge did not record a sampled ingest context: %+v", edgeIngestSC)
	}

	pusher, err := federation.NewPusher(federation.PusherConfig{
		URL:    rootURL + "/v1/merge",
		Node:   "edge-traced",
		Source: edgeSrv,
		Tracer: edgeSrv.Tracer(),
		Parent: edgeSrv.LastIngestContext,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pusher.Push(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Edge ring: ingest and push share one trace.
	edgeTraces := getTraces(t, client, edgeTS.URL, "").Traces
	pushTrace := findTrace(edgeTraces, "federation.push")
	if pushTrace == nil {
		t.Fatalf("edge has no federation.push span: %+v", edgeTraces)
	}
	if !spanNames(*pushTrace)["http.ingest"] {
		t.Fatalf("push span did not join the ingest trace: %+v", pushTrace)
	}
	if pushTrace.TraceID != edgeIngestSC.Trace.String() {
		t.Fatalf("push trace %s != ingest trace %s", pushTrace.TraceID, edgeIngestSC.Trace.String())
	}

	// Root ring (root sampling is 0 — it joined via traceparent): the
	// SAME trace ID carries the merge handler and the apply span.
	rootTraces := getTraces(t, http.DefaultClient, rootURL, "").Traces
	rootTrace := findTrace(rootTraces, "federation.apply")
	if rootTrace == nil {
		t.Fatalf("root has no federation.apply span: %+v", rootTraces)
	}
	if rootTrace.TraceID != pushTrace.TraceID {
		t.Fatalf("root trace %s != edge trace %s — the trace broke at the HTTP hop",
			rootTrace.TraceID, pushTrace.TraceID)
	}
	if !spanNames(*rootTrace)["http.merge"] {
		t.Fatalf("root trace is missing the merge handler span: %+v", rootTrace)
	}
	// The apply span carries the pushing node's identity.
	for _, s := range rootTrace.Spans {
		if s.Name == "federation.apply" && s.Attrs["node"] != "edge-traced" {
			t.Fatalf("apply span attrs = %v, want node=edge-traced", s.Attrs)
		}
	}
}
