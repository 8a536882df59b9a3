package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	streamagg "repro"
	"repro/internal/workload"
)

// testPipeline registers one aggregate of every kind behind the six
// query verbs. Items must fit the range sketch's 2^20 universe (which
// also bounds WindowSum values).
func testPipeline(t *testing.T) *streamagg.Pipeline {
	t.Helper()
	p := streamagg.NewPipeline()
	add := func(name string, kind streamagg.Kind, opts ...streamagg.Option) {
		t.Helper()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	add("ones", streamagg.KindBasicCounter, streamagg.WithWindow(1<<16), streamagg.WithEpsilon(0.05))
	add("load", streamagg.KindWindowSum,
		streamagg.WithWindow(1<<16), streamagg.WithMaxValue(1<<20), streamagg.WithEpsilon(0.05))
	add("hot", streamagg.KindFreq, streamagg.WithEpsilon(0.005))
	add("recent", streamagg.KindSlidingFreq,
		streamagg.WithWindow(1<<15), streamagg.WithEpsilon(0.01))
	add("cm", streamagg.KindCountMin,
		streamagg.WithEpsilon(1e-3), streamagg.WithDelta(0.01), streamagg.WithSeed(7))
	add("dist", streamagg.KindCountMinRange,
		streamagg.WithUniverseBits(20), streamagg.WithEpsilon(0.002), streamagg.WithSeed(3))
	return p
}

// get decodes a JSON GET response, failing on non-2xx.
func get(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, body, err)
	}
}

func post(t *testing.T, client *http.Client, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// ingestSync POSTs one chunk with sync:true, so the chunk becomes
// exactly one minibatch at the sink — the boundary-deterministic mode
// the equivalence assertions need.
func ingestSync(t *testing.T, client *http.Client, base string, chunk []uint64) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"items": chunk, "sync": true})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := post(t, client, base+"/v1/ingest", "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, resp)
	}
}

// queryAll captures every verb's answer over HTTP, typed loosely as the
// raw JSON for equality comparison.
func queryAll(t *testing.T, client *http.Client, base string, probes []uint64) map[string]json.RawMessage {
	t.Helper()
	out := map[string]json.RawMessage{}
	grab := func(key, url string) {
		t.Helper()
		resp, err := client.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
		}
		out[key] = body
	}
	for _, p := range probes {
		grab(fmt.Sprintf("estimate-hot-%d", p), fmt.Sprintf("/v1/hot/estimate?item=%d", p))
		grab(fmt.Sprintf("estimate-cm-%d", p), fmt.Sprintf("/v1/cm/estimate?item=%d", p))
		grab(fmt.Sprintf("estimate-recent-%d", p), fmt.Sprintf("/v1/recent/estimate?item=%d", p))
	}
	grab("value-ones", "/v1/ones/value")
	grab("value-load", "/v1/load/value")
	grab("hh-hot", "/v1/hot/heavyhitters?phi=0.01")
	grab("topk-hot", "/v1/hot/topk?k=10")
	grab("range-dist", "/v1/dist/rangecount?lo=0&hi=524288")
	grab("quantile-dist", "/v1/dist/quantile?q=0.5")
	grab("quantile-dist-99", "/v1/dist/quantile?q=0.99")
	return out
}

// TestServerEndToEnd is the acceptance drill: ingest >= 1M items through
// POST /v1/ingest, answer all six query verbs identically to a
// directly-fed Pipeline, checkpoint, diverge, restore, and re-verify.
func TestServerEndToEnd(t *testing.T) {
	pipe := testPipeline(t)
	mirror := testPipeline(t)
	srv, err := New(pipe,
		streamagg.WithBatchSize(1<<14), streamagg.WithMaxLatency(50*time.Millisecond),
		streamagg.WithQueueCap(1<<17))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	total := 1 << 20 // >= 1M items
	if testing.Short() {
		total = 1 << 18
	}
	const chunkSize = 1 << 14
	stream := workload.Zipf(71, total, 1.15, 1<<20)
	chunks := workload.Batches(stream, chunkSize)
	probes := []uint64{0, 1, 2, 17, 999, 1 << 19}

	for _, chunk := range chunks {
		ingestSync(t, client, ts.URL, chunk)
		if err := mirror.ProcessBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}

	// All six verbs over HTTP must match the directly-fed mirror.
	answers := queryAll(t, client, ts.URL, probes)
	assertMatchesMirror(t, answers, mirror, probes)

	// Stats reflect the load.
	var stats struct {
		StreamLen  int64 `json:"stream_len"`
		Aggregates []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"aggregates"`
		Ingest streamagg.IngestorStats `json:"ingest"`
	}
	get(t, client, ts.URL+"/v1/stats", &stats)
	if stats.StreamLen != int64(total) {
		t.Fatalf("stats stream_len = %d, want %d", stats.StreamLen, total)
	}
	if stats.Ingest.Enqueued != int64(total) || stats.Ingest.Processed != int64(total) {
		t.Fatalf("ingest stats: %+v", stats.Ingest)
	}
	if len(stats.Aggregates) != 6 {
		t.Fatalf("stats aggregates: %+v", stats.Aggregates)
	}

	// Checkpoint, push the state forward, restore, and the answers must
	// snap back exactly.
	code, ckpt := post(t, client, ts.URL+"/v1/checkpoint", "application/octet-stream", nil)
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, ckpt)
	}
	extra := workload.Batches(workload.Zipf(73, 4*chunkSize, 1.15, 1<<20), chunkSize)
	for _, chunk := range extra {
		ingestSync(t, client, ts.URL, chunk)
	}
	var flushResp struct {
		StreamLen int64 `json:"stream_len"`
	}
	get(t, client, ts.URL+"/v1/stats", &struct{}{}) // still serving
	if code, body := post(t, client, ts.URL+"/v1/restore", "application/octet-stream", ckpt); code != http.StatusOK {
		t.Fatalf("restore: %d %s", code, body)
	} else if err := json.Unmarshal(body, &flushResp); err != nil {
		t.Fatal(err)
	}
	if flushResp.StreamLen != int64(total) {
		t.Fatalf("restored stream_len = %d, want %d", flushResp.StreamLen, total)
	}
	restoredAnswers := queryAll(t, client, ts.URL, probes)
	for key, want := range answers {
		if !bytes.Equal(restoredAnswers[key], want) {
			t.Fatalf("%s diverged after restore: %s vs %s", key, restoredAnswers[key], want)
		}
	}

	// The restored server keeps serving: feed the extra chunks again,
	// mirror them directly, and re-verify equivalence end to end.
	for _, chunk := range extra {
		ingestSync(t, client, ts.URL, chunk)
		if err := mirror.ProcessBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	assertMatchesMirror(t, queryAll(t, client, ts.URL, probes), mirror, probes)

	// Graceful shutdown drains and then refuses ingest.
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"items": []uint64{1}})
	if code, _ := post(t, client, ts.URL+"/v1/ingest", "application/json", body); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after shutdown: %d, want 503", code)
	}
}

// assertMatchesMirror re-derives every HTTP answer from the mirror
// pipeline and compares decoded values.
func assertMatchesMirror(t *testing.T, answers map[string]json.RawMessage, mirror *streamagg.Pipeline, probes []uint64) {
	t.Helper()
	decode := func(key string, out any) {
		t.Helper()
		if err := json.Unmarshal(answers[key], out); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	for _, p := range probes {
		for _, agg := range []string{"hot", "cm", "recent"} {
			var got struct {
				Estimate int64 `json:"estimate"`
			}
			decode(fmt.Sprintf("estimate-%s-%d", agg, p), &got)
			want, err := mirror.Estimate(agg, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != want {
				t.Fatalf("%s estimate(%d) = %d over HTTP, %d direct", agg, p, got.Estimate, want)
			}
		}
	}
	for _, name := range []string{"ones", "load"} {
		var got struct {
			Value int64 `json:"value"`
		}
		decode("value-"+name, &got)
		want, err := mirror.Value(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want {
			t.Fatalf("%s value = %d over HTTP, %d direct", name, got.Value, want)
		}
	}
	var hh struct {
		Items []struct {
			Item  uint64 `json:"item"`
			Count int64  `json:"count"`
		} `json:"items"`
	}
	decode("hh-hot", &hh)
	wantHH, err := mirror.HeavyHitters("hot", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh.Items) != len(wantHH) {
		t.Fatalf("heavy hitters: %d over HTTP, %d direct", len(hh.Items), len(wantHH))
	}
	for i := range wantHH {
		if hh.Items[i].Item != wantHH[i].Item || hh.Items[i].Count != wantHH[i].Count {
			t.Fatalf("heavy hitter %d: %+v over HTTP, %+v direct", i, hh.Items[i], wantHH[i])
		}
	}
	var topk struct {
		Items []struct {
			Item  uint64 `json:"item"`
			Count int64  `json:"count"`
		} `json:"items"`
	}
	decode("topk-hot", &topk)
	wantTop, err := mirror.TopK("hot", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.Items) != len(wantTop) {
		t.Fatalf("topk: %d over HTTP, %d direct", len(topk.Items), len(wantTop))
	}
	for i := range wantTop {
		if topk.Items[i].Item != wantTop[i].Item || topk.Items[i].Count != wantTop[i].Count {
			t.Fatalf("topk %d: %+v over HTTP, %+v direct", i, topk.Items[i], wantTop[i])
		}
	}
	var rc struct {
		Count int64 `json:"count"`
	}
	decode("range-dist", &rc)
	wantRC, err := mirror.RangeCount("dist", 0, 524288)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Count != wantRC {
		t.Fatalf("rangecount = %d over HTTP, %d direct", rc.Count, wantRC)
	}
	for key, q := range map[string]float64{"quantile-dist": 0.5, "quantile-dist-99": 0.99} {
		var qr struct {
			Quantile uint64 `json:"quantile"`
		}
		decode(key, &qr)
		wantQ, err := mirror.Quantile("dist", q)
		if err != nil {
			t.Fatal(err)
		}
		if qr.Quantile != wantQ {
			t.Fatalf("quantile(%g) = %d over HTTP, %d direct", q, qr.Quantile, wantQ)
		}
	}
}

// TestServerErrorMapping: the library sentinels surface as the right
// HTTP status codes.
func TestServerErrorMapping(t *testing.T) {
	// No WindowSum here: hashed string keys exceed any value bound, and
	// this test ingests strings.
	pipe := streamagg.NewPipeline()
	for _, add := range []struct {
		name string
		kind streamagg.Kind
		opts []streamagg.Option
	}{
		{"ones", streamagg.KindBasicCounter, []streamagg.Option{streamagg.WithWindow(1 << 16)}},
		{"hot", streamagg.KindFreq, []streamagg.Option{streamagg.WithEpsilon(0.005)}},
		{"cm", streamagg.KindCountMin, nil},
		{"dist", streamagg.KindCountMinRange, []streamagg.Option{streamagg.WithUniverseBits(20)}},
	} {
		if _, err := pipe.Add(add.name, add.kind, add.opts...); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(pipe)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(t.Context())
	client := ts.Client()

	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/nope/estimate?item=1", http.StatusNotFound},    // ErrNoSuchAggregate
		{"/v1/hot/value", http.StatusBadRequest},             // ErrUnsupportedQuery
		{"/v1/ones/estimate?item=1", http.StatusBadRequest},  // ErrUnsupportedQuery
		{"/v1/cm/topk?k=3", http.StatusBadRequest},           // ErrUnsupportedQuery
		{"/v1/hot/estimate", http.StatusBadRequest},          // missing item
		{"/v1/hot/estimate?item=abc", http.StatusBadRequest}, // malformed item
		{"/v1/dist/quantile?q=abc", http.StatusBadRequest},   // malformed q
		{"/v1/hot/unknownverb", http.StatusNotFound},         // unknown verb
		{"/healthz", http.StatusOK},                          //
	} {
		resp, err := client.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("GET %s: %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}

	// Malformed and oversized ingest bodies.
	if code, _ := post(t, client, ts.URL+"/v1/ingest", "application/json", []byte("{nope")); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: %d", code)
	}
	// A key-hashed estimate works.
	body, _ := json.Marshal(map[string]any{"strings": []string{"alpha", "alpha", "beta"}, "sync": true})
	if code, resp := post(t, client, ts.URL+"/v1/ingest", "application/json", body); code != http.StatusOK {
		t.Fatalf("string ingest: %d %s", code, resp)
	}
	var est struct {
		Estimate int64 `json:"estimate"`
	}
	get(t, client, ts.URL+"/v1/hot/estimate?key=alpha", &est)
	if est.Estimate != 2 {
		t.Fatalf("estimate(key=alpha) = %d, want 2", est.Estimate)
	}
	// A bare-array body is accepted.
	if code, resp := post(t, client, ts.URL+"/v1/ingest", "application/json", []byte("[1,2,3]")); code != http.StatusOK {
		t.Fatalf("bare array ingest: %d %s", code, resp)
	}
	// Restoring garbage fails cleanly.
	if code, _ := post(t, client, ts.URL+"/v1/restore", "application/octet-stream", []byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("garbage restore accepted")
	}
}

// TestServerRejectBackpressure: under BackpressureReject, a request
// larger than the whole queue maps to 429.
func TestServerRejectBackpressure(t *testing.T) {
	pipe := streamagg.NewPipeline()
	if _, err := pipe.Add("cm", streamagg.KindCountMin); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pipe,
		streamagg.WithBatchSize(1024), streamagg.WithQueueCap(1024),
		streamagg.WithBackpressure(streamagg.BackpressureReject))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(t.Context())

	big := make([]uint64, 2048)
	body, _ := json.Marshal(map[string]any{"items": big})
	code, resp := post(t, ts.Client(), ts.URL+"/v1/ingest", "application/json", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversized ingest: %d %s, want 429", code, resp)
	}
	var stats struct {
		Ingest streamagg.IngestorStats `json:"ingest"`
	}
	get(t, ts.Client(), ts.URL+"/v1/stats", &stats)
	if stats.Ingest.Rejected != 2048 {
		t.Fatalf("rejected = %d, want 2048", stats.Ingest.Rejected)
	}
}

// TestServerConcurrentIngestCheckpoint hammers /v1/ingest from many
// goroutines while checkpoints and restores run mid-load (the -race
// serving drill).
func TestServerConcurrentIngestCheckpoint(t *testing.T) {
	pipe := streamagg.NewPipeline()
	if _, err := pipe.Add("cm", streamagg.KindCountMin,
		streamagg.WithEpsilon(1e-3), streamagg.WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Add("hot", streamagg.KindFreq, streamagg.WithEpsilon(0.01)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pipe,
		streamagg.WithBatchSize(2048), streamagg.WithMaxLatency(time.Millisecond),
		streamagg.WithQueueCap(1<<15))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	const producers = 6
	perProducer := 40
	if testing.Short() {
		perProducer = 15
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			stream := workload.Zipf(int64(200+p), perProducer*512, 1.1, 1<<16)
			for _, chunk := range workload.Batches(stream, 512) {
				body, err := json.Marshal(map[string]any{"items": chunk})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: %d", resp.StatusCode)
					return
				}
			}
		}(p)
	}
	// Mid-load checkpoints; each must be a valid restorable envelope.
	for i := 0; i < 3; i++ {
		code, ckpt := post(t, client, ts.URL+"/v1/checkpoint", "application/octet-stream", nil)
		if code != http.StatusOK {
			t.Fatalf("checkpoint %d: %d", i, code)
		}
		restored := streamagg.NewPipeline()
		if err := restored.UnmarshalBinary(ckpt); err != nil {
			t.Fatalf("checkpoint %d not restorable: %v", i, err)
		}
	}
	wg.Wait()
	if code, _ := post(t, client, ts.URL+"/v1/flush", "application/json", nil); code != http.StatusOK {
		t.Fatal("flush failed")
	}
	if got, want := pipe.StreamLen(), int64(producers*perProducer*512); got != want {
		t.Fatalf("StreamLen %d, want %d", got, want)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srv.Pipeline(), pipe) {
		t.Fatal("Pipeline accessor lost the pipeline")
	}
}

// TestServerRestoreRefusesBasicSliding: a checkpoint holding a
// sliding-freq member of the basic algorithm, which no longer ships, is
// a 400 from /v1/restore and leaves the served state as it was. The
// fixture is described in the root package's slidingfreq_compat_test.go.
func TestServerRestoreRefusesBasicSliding(t *testing.T) {
	basic, err := os.ReadFile(filepath.Join("..", "testdata", "parent_sliding_basic.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	p := streamagg.NewPipeline()
	if _, err := p.Add("recent", streamagg.KindSlidingFreq,
		streamagg.WithWindow(4096), streamagg.WithEpsilon(0.05)); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(t.Context())
	client := ts.Client()

	chunk := make([]uint64, 1024) // 512 copies of item 7, the rest distinct
	for i := range chunk {
		chunk[i] = 7
		if i%2 == 1 {
			chunk[i] = uint64(1000 + i)
		}
	}
	ingestSync(t, client, ts.URL, chunk)
	served := func() map[string]json.RawMessage {
		t.Helper()
		out := map[string]json.RawMessage{}
		for _, url := range []string{"/v1/recent/topk?k=10", "/v1/recent/estimate?item=7"} {
			var v json.RawMessage
			get(t, client, ts.URL+url, &v)
			out[url] = v
		}
		var stats struct{ Aggregates json.RawMessage }
		get(t, client, ts.URL+"/v1/stats", &stats)
		out["/v1/stats aggregates"] = stats.Aggregates
		return out
	}
	before := served()
	var est struct{ Estimate int64 }
	if err := json.Unmarshal(before["/v1/recent/estimate?item=7"], &est); err != nil || est.Estimate < 512-204 || est.Estimate > 512 {
		t.Fatalf("estimate of item 7 before the restore: %s, want within [512 - εn, 512], εn = 204.8", before["/v1/recent/estimate?item=7"])
	}
	code, body := post(t, client, ts.URL+"/v1/restore", "application/octet-stream", basic)
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("basic")) {
		t.Fatalf("basic restore = %d %s, want 400 naming the variant", code, body)
	}
	if after := served(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused restore changed the served state:\nbefore %s\nafter  %s", before, after)
	}
}
