package federation

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/metrics"
)

// fakeRoot is an httptest /v1/merge endpoint with a scriptable response
// sequence; once the script runs out it keeps answering with the last
// entry.
type fakeRoot struct {
	mu     sync.Mutex
	script []func(w http.ResponseWriter, env *Envelope)
	got    []*Envelope
}

func (f *fakeRoot) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		env, err := DecodeEnvelope(body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(mergeReject{Error: err.Error()})
			return
		}
		f.mu.Lock()
		f.got = append(f.got, env)
		step := f.script[0]
		if len(f.script) > 1 {
			f.script = f.script[1:]
		}
		f.mu.Unlock()
		step(w, env)
	}
}

func (f *fakeRoot) envelopes() []*Envelope {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Envelope(nil), f.got...)
}

func ok(w http.ResponseWriter, env *Envelope) {
	_ = json.NewEncoder(w).Encode(map[string]any{"applied": true, "seq": env.Seq})
}

func status(code int) func(http.ResponseWriter, *Envelope) {
	return func(w http.ResponseWriter, _ *Envelope) { w.WriteHeader(code) }
}

func reject(code int, reason string) func(http.ResponseWriter, *Envelope) {
	return func(w http.ResponseWriter, _ *Envelope) {
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(mergeReject{Error: "rejected", Reason: reason})
	}
}

// newTestPusher wires a Pusher at the fake root with instant backoff.
func newTestPusher(t *testing.T, root *fakeRoot, cfg PusherConfig) (*Pusher, *metrics.Registry) {
	t.Helper()
	srv := httptest.NewServer(root.handler())
	t.Cleanup(srv.Close)
	reg := metrics.NewRegistry()
	cfg.URL = srv.URL + "/v1/merge"
	if cfg.Node == "" {
		cfg.Node = "edge-1"
	}
	cfg.Registry = reg
	if cfg.Epoch == 0 {
		cfg.Epoch = 7
	}
	p, err := NewPusher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.sleep = func(context.Context, time.Duration) error { return nil }
	return p, reg
}

func counter(reg *metrics.Registry, result string) *metrics.Counter {
	return reg.Counter("streamagg_federation_pushes_total",
		"Federation push attempts by outcome.", "result", result)
}

func staticSource(payload string) Source {
	return SourceFunc(func() ([]byte, error) { return []byte(payload), nil })
}

func TestPusherValidation(t *testing.T) {
	src := staticSource("x")
	cases := []PusherConfig{
		{Node: "n", Source: src},                // no URL
		{URL: "http://x/v1/merge", Source: src}, // no node
		{URL: "http://x/v1/merge", Node: "n"},   // no source
	}
	for i, cfg := range cases {
		if _, err := NewPusher(cfg); err == nil {
			t.Fatalf("case %d: NewPusher accepted an invalid config", i)
		}
	}
	p, err := NewPusher(PusherConfig{URL: "http://x/v1/merge", Node: "n", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch() == 0 {
		t.Fatal("zero Epoch was not defaulted")
	}
	if p.Interval() != DefaultInterval {
		t.Fatalf("default interval %v", p.Interval())
	}
}

func TestPusherSendsSequencedEnvelopes(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){ok}}
	p, reg := newTestPusher(t, root, PusherConfig{Source: staticSource("full state")})
	for i := 0; i < 3; i++ {
		if err := p.Push(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	envs := root.envelopes()
	if len(envs) != 3 {
		t.Fatalf("root saw %d envelopes", len(envs))
	}
	for i, env := range envs {
		if env.Node != "edge-1" || env.Epoch != 7 || env.Seq != uint64(i+1) || env.Mode != ModeFull {
			t.Fatalf("envelope %d: %+v", i, env)
		}
		if string(env.Payload) != "full state" {
			t.Fatalf("envelope %d payload %q", i, env.Payload)
		}
	}
	if got := counter(reg, "sent").Value(); got != 3 {
		t.Fatalf("sent counter = %d", got)
	}
	if got := reg.Gauge("streamagg_federation_push_last_seq",
		"Seq of the last acknowledged push.").Value(); got != 3 {
		t.Fatalf("last_seq gauge = %d", got)
	}
}

func TestPusherRetriesTransientFailures(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){
		status(http.StatusInternalServerError),
		status(http.StatusTooManyRequests),
		ok,
	}}
	p, reg := newTestPusher(t, root, PusherConfig{Source: staticSource("payload")})
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	envs := root.envelopes()
	if len(envs) != 3 {
		t.Fatalf("root saw %d attempts, want 3", len(envs))
	}
	// All attempts carry the same seq: retries, not new pushes.
	for _, env := range envs {
		if env.Seq != 1 {
			t.Fatalf("retry changed seq: %+v", env)
		}
	}
	if got := counter(reg, "retried").Value(); got != 2 {
		t.Fatalf("retried counter = %d", got)
	}
	if got := counter(reg, "sent").Value(); got != 1 {
		t.Fatalf("sent counter = %d", got)
	}
}

func TestPusherGivesUpAfterAttempts(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){
		status(http.StatusServiceUnavailable),
	}}
	p, reg := newTestPusher(t, root, PusherConfig{Source: staticSource("payload")})
	if err := p.Push(context.Background()); err == nil {
		t.Fatal("Push succeeded against an always-503 root")
	}
	if got := len(root.envelopes()); got != defaultAttempts {
		t.Fatalf("root saw %d attempts, want %d", got, defaultAttempts)
	}
	if got := counter(reg, "failed").Value(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
}

func TestPusherDuplicateTreatedAsDelivered(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){
		reject(http.StatusConflict, "duplicate"),
	}}
	p, reg := newTestPusher(t, root, PusherConfig{Source: staticSource("payload")})
	if err := p.Push(context.Background()); err != nil {
		t.Fatalf("duplicate 409 surfaced as an error: %v", err)
	}
	if got := counter(reg, "duplicate").Value(); got != 1 {
		t.Fatalf("duplicate counter = %d", got)
	}
	if got := counter(reg, "sent").Value(); got != 0 {
		t.Fatalf("sent counter = %d", got)
	}
}

func TestPusherPermanentRejection(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){
		reject(http.StatusConflict, "incompatible"),
	}}
	p, reg := newTestPusher(t, root, PusherConfig{Source: staticSource("payload")})
	if err := p.Push(context.Background()); err == nil {
		t.Fatal("incompatible 409 did not surface as an error")
	}
	if got := len(root.envelopes()); got != 1 {
		t.Fatalf("permanent rejection was retried: %d attempts", got)
	}
	if got := counter(reg, "failed").Value(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
}

// TestPusherFinal: Final is one more ordinary push of the whole state,
// under the next seq.
func TestPusherFinal(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){ok}}
	p, _ := newTestPusher(t, root, PusherConfig{Source: staticSource("state")})
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.Final(context.Background()); err != nil {
		t.Fatal(err)
	}
	envs := root.envelopes()
	if len(envs) != 2 || envs[1].Seq != 2 || string(envs[1].Payload) != "state" {
		t.Fatalf("Final: root saw %+v", envs)
	}
}

// TestPusherFailedPushIsSuperseded: a push that exhausts its attempts
// is not carried over; the next Push captures the source afresh under a
// new seq, and that payload carries everything.
func TestPusherFailedPushIsSuperseded(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){
		status(http.StatusInternalServerError),
	}}
	var captures int
	src := SourceFunc(func() ([]byte, error) {
		captures++
		return []byte{byte('0' + captures)}, nil
	})
	p, _ := newTestPusher(t, root, PusherConfig{Source: src})
	if err := p.Push(context.Background()); err == nil {
		t.Fatal("Push succeeded against an always-500 root")
	}
	root.mu.Lock()
	root.script = []func(http.ResponseWriter, *Envelope){ok}
	root.mu.Unlock()
	if err := p.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	envs := root.envelopes()
	last := envs[len(envs)-1]
	if captures != 2 || last.Seq != 2 || string(last.Payload) != "2" {
		t.Fatalf("after a failed push: %d captures, last envelope %+v", captures, last)
	}
}

// TestPusherRun: the interval loop pushes until the context ends.
func TestPusherRun(t *testing.T) {
	root := &fakeRoot{script: []func(http.ResponseWriter, *Envelope){ok}}
	p, _ := newTestPusher(t, root, PusherConfig{
		Source:   staticSource("state"),
		Interval: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for len(root.envelopes()) < 2 {
		select {
		case <-deadline:
			t.Fatal("Run made no progress")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}
