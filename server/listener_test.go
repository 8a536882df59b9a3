package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerServeAndShutdownOnListener is the one in-process test of
// Serve on a real listener rather than httptest: Serve on a loopback port
// answers an ingest and a query, a graceful Shutdown returns nil, Serve
// returns nil (http.ErrServerClosed, translated), and the port is closed.
func TestServerServeAndShutdownOnListener(t *testing.T) {
	srv, err := New(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr
	ingestSync(t, client, base, []uint64{5, 5, 9})
	get(t, client, base+"/v1/hot/topk?k=2", &struct{}{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Shutdown, want nil", err)
		}
	case <-ctx.Done():
		t.Fatal("Serve did not return after Shutdown")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("dial %s succeeded after Shutdown", addr)
	}
}
