package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	streamagg "repro"
	"repro/federation"
	"repro/persist"
)

// TestRunErrorReleasesDataDir: whatever makes Run fail, the data
// directory it was given is unlocked when Run returns, and no pusher it
// started keeps shipping. Bad configuration is ErrBadParam.
func TestRunErrorReleasesDataDir(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	var pushes atomic.Int64
	root := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pushes.Add(1)
	}))
	defer root.Close()

	cases := []struct {
		name     string
		cfg      RunConfig
		badParam bool
	}{
		{"trace sample above 1", RunConfig{TraceSample: 2}, true},
		{"push-to without node-id", RunConfig{PushTo: root.URL}, true},
		{"node-id too long", RunConfig{PushTo: root.URL, NodeID: strings.Repeat("n", federation.MaxNodeID+1)}, true},
		{"push-to without host", RunConfig{PushTo: "http://", NodeID: "edge"}, true},
		{"push flags without push-to", RunConfig{NodeID: "edge", PushEvery: time.Second}, true},
		{"listener error with a pusher", RunConfig{Addr: busy.Addr().String(),
			PushTo: root.URL, NodeID: "edge", PushEvery: 5 * time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Addr == "" {
				cfg.Addr = "127.0.0.1:0"
			}
			cfg.Specs = DemoSpecs
			cfg.MaxLatency = -1
			cfg.DataDir = t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			err := Run(ctx, cfg)
			if err == nil {
				t.Fatal("Run returned nil, want an error")
			}
			if tc.badParam && !errors.Is(err, streamagg.ErrBadParam) {
				t.Errorf("Run: %v, want ErrBadParam", err)
			}
			n := pushes.Load()
			time.Sleep(50 * time.Millisecond)
			if got := pushes.Load(); got != n {
				t.Errorf("%d pushes after Run returned", got-n)
			}
			st, err := persist.Open(cfg.DataDir, persist.Options{})
			if err != nil {
				t.Fatalf("data directory after the failed Run: %v", err)
			}
			st.Close()
		})
	}
}
