package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	streamagg "repro"
	"repro/federation"
	"repro/internal/workload"
)

// fedTestPipeline builds a pipeline of mergeable kinds only (whole
// pipelines are the federation payload, so a non-Merger member would
// make every push incompatible), with pinned seeds so independently
// built instances merge. A non-zero cmSeed overrides the count-min seed
// to manufacture incompatible peers.
func fedTestPipeline(t *testing.T, cmSeed int64) *streamagg.Pipeline {
	t.Helper()
	if cmSeed == 0 {
		cmSeed = 7
	}
	p := streamagg.NewPipeline()
	add := func(name string, kind streamagg.Kind, opts ...streamagg.Option) {
		t.Helper()
		if _, err := p.Add(name, kind, opts...); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	add("hot", streamagg.KindFreq, streamagg.WithEpsilon(0.005))
	add("cm", streamagg.KindCountMin,
		streamagg.WithEpsilon(1e-3), streamagg.WithDelta(0.01), streamagg.WithSeed(cmSeed))
	add("dist", streamagg.KindCountMinRange,
		streamagg.WithUniverseBits(20), streamagg.WithEpsilon(0.002), streamagg.WithSeed(3))
	add("sk", streamagg.KindCountSketch, streamagg.WithSeed(5))
	return p
}

// fedServer builds an in-process Server around a federation-friendly
// pipeline and serves it over httptest.
func fedServer(t *testing.T, cmSeed int64) (*Server, string) {
	t.Helper()
	srv, err := New(fedTestPipeline(t, cmSeed))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv, hs.URL
}

func feedServer(t *testing.T, srv *Server, items []uint64) {
	t.Helper()
	if _, err := srv.Ingestor().PutBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ingestor().Flush(); err != nil {
		t.Fatal(err)
	}
}

func checkpointBytes(t *testing.T, client *http.Client, base string) []byte {
	t.Helper()
	resp, err := client.Post(base+"/v1/checkpoint", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, data)
	}
	return data
}

// queryInt64 runs one query verb and returns the named JSON field.
func queryInt64(t *testing.T, client *http.Client, url, field string) int64 {
	t.Helper()
	var out map[string]json.RawMessage
	get(t, client, url, &out)
	var v int64
	if err := json.Unmarshal(out[field], &v); err != nil {
		t.Fatalf("GET %s: field %q in %v: %v", url, field, out, err)
	}
	return v
}

// TestServerFederationEndToEnd is the federation acceptance drill:
// three edge servers absorb zipf slices and push full-state summaries to
// a root that also ingests local traffic; the root's six query verbs
// must answer within the paper's bounds of a single directly-fed
// pipeline — exactly so for the linear sketches — and a duplicate replay
// must leave the root byte-identical.
func TestServerFederationEndToEnd(t *testing.T) {
	const perEdge = 150_000
	_, rootURL := fedServer(t, 0)
	client := &http.Client{}
	oracle := fedTestPipeline(t, 0)
	truth := map[uint64]int64{}

	feedOracle := func(items []uint64) {
		if err := oracle.ProcessBatch(items); err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			truth[it]++
		}
	}

	// Local traffic at the root itself rides under the overlay.
	local := workload.Zipf(90, 50_000, 1.15, 1<<20)
	body, err := json.Marshal(map[string]any{"items": local, "sync": true})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := post(t, client, rootURL+"/v1/ingest", "application/json", body); code != http.StatusOK {
		t.Fatalf("root ingest: %d %s", code, resp)
	}
	feedOracle(local)

	// Three edges, each its own zipf slice, pushed via the real Pusher.
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		stream := workload.Zipf(int64(91+i), perEdge, 1.15, 1<<20)
		edge, _ := fedServer(t, 0)
		feedServer(t, edge, stream)
		feedOracle(stream)
		pusher, err := federation.NewPusher(federation.PusherConfig{
			URL:    rootURL + "/v1/merge",
			Node:   fmt.Sprintf("edge-%d", i),
			Source: edge,
			Epoch:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pusher.Push(ctx); err != nil {
			t.Fatalf("edge-%d push: %v", i, err)
		}
	}
	total := int64(50_000 + 3*perEdge)

	assertRoot := func(t *testing.T) {
		t.Helper()
		probes := []uint64{0, 1, 2, 17, 999, 1 << 19}
		for _, item := range probes {
			// Linear sketches: the federated merge is EXACTLY the sketch
			// of the concatenated stream.
			for _, name := range []string{"cm", "sk"} {
				got := queryInt64(t, client,
					fmt.Sprintf("%s/v1/%s/estimate?item=%d", rootURL, name, item), "estimate")
				want, err := oracle.Estimate(name, item)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s.estimate(%d) = %d, oracle %d", name, item, got, want)
				}
			}
			// Misra-Gries: the paper's merged bound f - ε·m <= est <= f.
			got := queryInt64(t, client,
				fmt.Sprintf("%s/v1/hot/estimate?item=%d", rootURL, item), "estimate")
			f := truth[item]
			slack := int64(0.005 * float64(total))
			if got > f || got < f-slack {
				t.Fatalf("hot.estimate(%d) = %d outside [%d, %d]", item, got, f-slack, f)
			}
		}
		// value: exact via the merged count-min's total count.
		if got := queryInt64(t, client, rootURL+"/v1/cm/value", "value"); got != total {
			t.Fatalf("cm.value = %d, want %d", got, total)
		}
		// rangecount + quantile: exact vs oracle (same seeds, linear).
		for _, rng := range [][2]uint64{{0, 1 << 19}, {5, 4096}} {
			got := queryInt64(t, client,
				fmt.Sprintf("%s/v1/dist/rangecount?lo=%d&hi=%d", rootURL, rng[0], rng[1]), "count")
			want, err := oracle.RangeCount("dist", rng[0], rng[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("dist.rangecount(%d,%d) = %d, oracle %d", rng[0], rng[1], got, want)
			}
		}
		for _, q := range []float64{0.1, 0.5, 0.99} {
			got := queryInt64(t, client,
				fmt.Sprintf("%s/v1/dist/quantile?q=%g", rootURL, q), "quantile")
			want, err := oracle.Quantile("dist", q)
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(want) {
				t.Fatalf("dist.quantile(%g) = %d, oracle %d", q, got, want)
			}
		}
		// heavyhitters + topk: the zipf head must surface, counts within
		// the MG bound.
		var hh struct {
			Items []struct {
				Item  uint64 `json:"item"`
				Count int64  `json:"count"`
			} `json:"items"`
		}
		get(t, client, rootURL+"/v1/hot/heavyhitters?phi=0.02", &hh)
		if len(hh.Items) == 0 {
			t.Fatal("heavyhitters returned nothing on a zipf stream")
		}
		for _, it := range hh.Items {
			if f := truth[it.Item]; it.Count > f {
				t.Fatalf("heavyhitter %d overcounted: %d > true %d", it.Item, it.Count, f)
			}
		}
		var topk struct {
			Items []struct {
				Item uint64 `json:"item"`
			} `json:"items"`
		}
		get(t, client, rootURL+"/v1/hot/topk?k=5", &topk)
		if len(topk.Items) == 0 {
			t.Fatal("topk returned nothing")
		}
	}
	assertRoot(t)

	// /v1/stats reports the three edges.
	var stats struct {
		Federation struct {
			Nodes []federation.NodeStatus `json:"nodes"`
		} `json:"federation"`
	}
	get(t, client, rootURL+"/v1/stats", &stats)
	if len(stats.Federation.Nodes) != 3 {
		t.Fatalf("stats.federation.nodes = %+v", stats.Federation.Nodes)
	}
	for i, ns := range stats.Federation.Nodes {
		if want := fmt.Sprintf("edge-%d", i); ns.Node != want || ns.Epoch != 1 || ns.Seq != 1 {
			t.Fatalf("node %d status = %+v", i, ns)
		}
	}

	// Duplicate replay: same (node, epoch, seq) under a fresh payload.
	// The root must answer 409 reason=duplicate and stay byte-identical.
	replayPipe := fedTestPipeline(t, 0)
	if err := replayPipe.ProcessBatch(workload.Zipf(99, 10_000, 1.15, 1<<20)); err != nil {
		t.Fatal(err)
	}
	payload, err := replayPipe.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := federation.EncodeEnvelope(&federation.Envelope{
		Node: "edge-0", Epoch: 1, Seq: 1, Mode: federation.ModeFull, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := checkpointBytes(t, client, rootURL)
	code, resp := post(t, client, rootURL+"/v1/merge", "application/octet-stream", replay)
	if code != http.StatusConflict {
		t.Fatalf("replay: %d %s", code, resp)
	}
	var rej struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(resp, &rej); err != nil || rej.Reason != "duplicate" {
		t.Fatalf("replay reason = %q (%v) in %s", rej.Reason, err, resp)
	}
	if !bytes.Equal(before, checkpointBytes(t, client, rootURL)) {
		t.Fatal("duplicate replay changed the root checkpoint")
	}
	assertRoot(t)

	// Garbage body: 400.
	if code, _ := post(t, client, rootURL+"/v1/merge", "application/octet-stream",
		[]byte("definitely not an envelope")); code != http.StatusBadRequest {
		t.Fatalf("garbage merge body: %d", code)
	}

	// Incompatible pipeline (different count-min seed): 409 incompatible.
	alien := fedTestPipeline(t, 1234)
	if err := alien.ProcessBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	alienPayload, err := alien.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	alienEnv, err := federation.EncodeEnvelope(&federation.Envelope{
		Node: "alien", Epoch: 1, Seq: 1, Mode: federation.ModeFull, Payload: alienPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, resp = post(t, client, rootURL+"/v1/merge", "application/octet-stream", alienEnv)
	if code != http.StatusConflict {
		t.Fatalf("incompatible merge: %d %s", code, resp)
	}
	if err := json.Unmarshal(resp, &rej); err != nil || rej.Reason != "incompatible" {
		t.Fatalf("incompatible reason = %q in %s", rej.Reason, resp)
	}
	assertRoot(t)

	// Single-aggregate envelope targeting the root's "cm" member.
	solo, err := streamagg.New(streamagg.KindCountMin,
		streamagg.WithEpsilon(1e-3), streamagg.WithDelta(0.01), streamagg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.ProcessBatch([]uint64{42, 42, 42}); err != nil {
		t.Fatal(err)
	}
	soloPayload, err := solo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	soloEnv, err := federation.EncodeEnvelope(&federation.Envelope{
		Node: "solo", Epoch: 1, Seq: 1, Mode: federation.ModeFull,
		Agg: "cm", Payload: soloPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := post(t, client, rootURL+"/v1/merge", "application/octet-stream", soloEnv); code != http.StatusOK {
		t.Fatalf("single-agg merge: %d %s", code, resp)
	}
	if got := queryInt64(t, client, rootURL+"/v1/cm/value", "value"); got != total+3 {
		t.Fatalf("cm.value = %d after single-agg push, want %d", got, total+3)
	}

	// The merge path shows up on the shared /metrics exposition.
	metricsResp, err := client.Get(rootURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	for _, want := range []string{
		`streamagg_federation_merges_total{result="applied"} 4`,
		`streamagg_federation_merges_total{result="duplicate"} 1`,
		`streamagg_federation_merges_total{result="incompatible"} 1`,
		`streamagg_federation_node_last_seq{node="edge-0"} 1`,
		"streamagg_federation_merge_payload_bytes_count",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestServerFederationDelta: a delta push, as an edge running an older
// binary still sends it, merges destructively into the root's base, and
// a duplicate replay of a delta — the dangerous one, since re-merging
// would double-count — leaves the root checkpoint byte-identical.
func TestServerFederationDelta(t *testing.T) {
	_, rootURL := fedServer(t, 0)
	client := &http.Client{}
	oracle := fedTestPipeline(t, 0)

	// push sends a hand-made delta: the checkpoint of a fresh pipeline
	// fed only this stream, as the older edge captured it.
	push := func(seq uint64, stream []uint64) []byte {
		t.Helper()
		delta := fedTestPipeline(t, 0)
		if err := delta.ProcessBatch(stream); err != nil {
			t.Fatal(err)
		}
		payload, err := delta.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		env, err := federation.EncodeEnvelope(&federation.Envelope{
			Node: "edge-1", Epoch: 1, Seq: seq, Mode: federation.ModeDelta, Payload: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		code, resp := post(t, client, rootURL+"/v1/merge", "application/octet-stream", env)
		if code != http.StatusOK {
			t.Fatalf("delta push seq %d: %d %s", seq, code, resp)
		}
		return env
	}

	streamA := workload.Zipf(101, 60_000, 1.15, 1<<20)
	streamB := workload.Zipf(102, 40_000, 1.15, 1<<20)
	for _, s := range [][]uint64{streamA, streamB} {
		if err := oracle.ProcessBatch(s); err != nil {
			t.Fatal(err)
		}
	}
	push(1, streamA)
	lastEnv := push(2, streamB)

	for _, item := range []uint64{streamA[0], streamB[0], 1, 999} {
		got := queryInt64(t, client,
			fmt.Sprintf("%s/v1/cm/estimate?item=%d", rootURL, item), "estimate")
		want, err := oracle.Estimate("cm", item)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("cm.estimate(%d) = %d, oracle %d", item, got, want)
		}
	}
	if got := queryInt64(t, client, rootURL+"/v1/cm/value", "value"); got != 100_000 {
		t.Fatalf("cm.value = %d, want 100000", got)
	}

	// Replaying the acknowledged delta byte-for-byte must not re-merge.
	before := checkpointBytes(t, client, rootURL)
	code, resp := post(t, client, rootURL+"/v1/merge", "application/octet-stream", lastEnv)
	if code != http.StatusConflict {
		t.Fatalf("delta replay: %d %s", code, resp)
	}
	if !bytes.Equal(before, checkpointBytes(t, client, rootURL)) {
		t.Fatal("delta replay changed the root checkpoint")
	}
	if got := queryInt64(t, client, rootURL+"/v1/cm/value", "value"); got != 100_000 {
		t.Fatalf("cm.value = %d after replay, want 100000", got)
	}
}

// TestServerFederationNodeCap: a root holds at most federation.MaxNodes
// node IDs. A push from one more new ID is a 429 with reason
// "capacity", which the pusher retries; known nodes keep landing.
func TestServerFederationNodeCap(t *testing.T) {
	pipe := func() *streamagg.Pipeline {
		p := streamagg.NewPipeline()
		if _, err := p.Add("cm", streamagg.KindCountMin, streamagg.WithEpsilon(0.01), streamagg.WithSeed(7)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	srv, err := New(pipe())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	client := hs.Client()
	edge := pipe()
	if err := edge.ProcessBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	payload, err := edge.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	push := func(node string, seq uint64) (int, []byte) {
		t.Helper()
		env, err := federation.EncodeEnvelope(&federation.Envelope{
			Node: node, Epoch: 1, Seq: seq, Payload: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		return post(t, client, hs.URL+"/v1/merge", "application/octet-stream", env)
	}
	for i := 0; i < federation.MaxNodes; i++ {
		if code, resp := push(fmt.Sprintf("edge-%03d", i), 1); code != http.StatusOK {
			t.Fatalf("node %d of %d: %d %s", i, federation.MaxNodes, code, resp)
		}
	}
	code, resp := push("one-too-many", 1)
	var rej struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(resp, &rej); code != http.StatusTooManyRequests || err != nil || rej.Reason != "capacity" {
		t.Fatalf("node %d: %d %s, want 429 reason capacity", federation.MaxNodes+1, code, resp)
	}
	if code, resp := push("edge-000", 2); code != http.StatusOK {
		t.Fatalf("known node past the cap: %d %s", code, resp)
	}
	if got, want := queryInt64(t, client, hs.URL+"/v1/cm/value", "value"), int64(3*federation.MaxNodes); got != want {
		t.Fatalf("cm.value = %d, want %d", got, want)
	}
	var scrape bytes.Buffer
	if err := srv.Metrics().WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("streamagg_federation_nodes %d\n", federation.MaxNodes),
		`streamagg_federation_merges_total{result="capacity"} 1`,
	} {
		if !strings.Contains(scrape.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestServerRefusesItsOwnPush: a server that pushes as node "self"
// refuses a merge from "self" with 409 "cycle" (its push target led
// back to it, and each round would add its view to itself again),
// leaves its answers as they were, and still lands other nodes.
func TestServerRefusesItsOwnPush(t *testing.T) {
	srv, url := fedServer(t, 0)
	srv.node = "self"
	feedServer(t, srv, []uint64{1, 2, 3})
	payload, err := srv.Capture()
	if err != nil {
		t.Fatal(err)
	}
	push := func(node string) (int, []byte) {
		t.Helper()
		env, err := federation.EncodeEnvelope(&federation.Envelope{
			Node: node, Epoch: 1, Seq: 1, Payload: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		return post(t, http.DefaultClient, url+"/v1/merge", "application/octet-stream", env)
	}
	code, resp := push("self")
	var rej struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(resp, &rej); code != http.StatusConflict || err != nil || rej.Reason != "cycle" {
		t.Fatalf("own push: %d %s, want 409 reason cycle", code, resp)
	}
	if got := queryInt64(t, http.DefaultClient, url+"/v1/cm/value", "value"); got != 3 {
		t.Fatalf("cm.value = %d after the refused push, want 3", got)
	}
	if code, resp := push("other"); code != http.StatusOK {
		t.Fatalf("other node: %d %s", code, resp)
	}
	if got := queryInt64(t, http.DefaultClient, url+"/v1/cm/value", "value"); got != 6 {
		t.Fatalf("cm.value = %d, want 6", got)
	}
}
