package server

// End-to-end smoke of the open-loop load harness against a real
// listener: every query verb the harness can drive plus ingest, over
// the same pipeline the rest of the server tests use. This is the
// black-box contract the CI aggload smoke builds on — a healthy server
// at a modest offered rate serves the whole mix with zero 5xx and zero
// transport errors, and the machine-readable report round-trips through
// JSON with the fields consumers grep for.

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/loadgen"
)

func TestServerHandlesMixedLoadCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short mode")
	}
	srv, err := New(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns nil on Shutdown
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	mix, err := loadgen.ParseMix(
		"ingest=70,estimate@cm=6,value@ones=6,heavyhitters@hot=6,topk@hot=4,rangecount@dist=4,quantile@dist=4")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:   "http://" + l.Addr().String(),
		Rate:     400,
		Workers:  2,
		Duration: time.Second,
		Warmup:   100 * time.Millisecond,
		Mix:      mix,
		Batch:    32,
		Keys:     loadgen.Keys{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Ops == 0 {
		t.Fatal("harness completed zero operations")
	}
	// The whole point of the smoke: a healthy server serves the entire
	// mix without server errors. Anything non-2xx here is a routing or
	// validation bug (the mix only issues well-formed requests).
	for _, class := range []string{"3xx", "4xx", "5xx", "error"} {
		if n := rep.Status[class]; n != 0 {
			t.Errorf("%d %s responses, want 0 (status=%v)", n, class, rep.Status)
		}
	}
	for _, e := range mix {
		v := rep.Verbs[e.Label()]
		if v == nil || v.Ops == 0 {
			t.Errorf("verb %s never completed an operation", e.Label())
		}
	}
	if rep.Verbs["ingest"] != nil && rep.Verbs["ingest"].Items == 0 {
		t.Error("ingest completed but delivered zero items")
	}
	if rep.AchievedPerSec <= 0 {
		t.Errorf("achieved rate %v, want > 0", rep.AchievedPerSec)
	}

	// The report is the machine-readable artifact aggload -json writes;
	// its keys are a contract with the CI smoke (which greps "5xx": 0)
	// and anyone plotting the files.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	for _, key := range []string{
		"target", "offered_per_sec", "achieved_per_sec", "duration_seconds",
		"workers", "ops", "items", "items_per_sec", "status", "latency_ms", "verbs",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing key %q", key)
		}
	}
	status, ok := decoded["status"].(map[string]any)
	if !ok {
		t.Fatalf("status is %T, want object", decoded["status"])
	}
	// All five classes render even at zero, so "5xx": 0 is grep-able.
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx", "error"} {
		if _, ok := status[class]; !ok {
			t.Errorf("status block missing class %q", class)
		}
	}
}
