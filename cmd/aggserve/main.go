// aggserve serves a streamagg Pipeline over HTTP: updates POSTed to
// /v1/ingest are coalesced into minibatches by the async Ingestor
// (batch-size threshold or max-latency timer, whichever first) and
// fanned out to every configured aggregate; the six query verbs, stats,
// and atomic checkpoint/restore ride alongside. SIGINT/SIGTERM shut the
// server down gracefully, draining the ingest queue first.
//
// With -data-dir the server is durable: every applied minibatch is
// appended to a write-ahead log under the directory before it becomes
// queryable (fsync policy selectable with -fsync), background snapshots
// bound the log, and a restart — graceful or SIGKILL — recovers the
// aggregates from the newest snapshot plus WAL replay.
//
// Usage:
//
//	aggserve [-addr :8080] [-agg name=kind,opt=val...]...
//	         [-batch 8192] [-latency 5ms] [-queue N] [-backpressure block|reject|drop]
//	         [-data-dir DIR] [-fsync always|interval|never] [-snapshot-every N]
//	         [-parallelism N] [-metrics=true|false]
//	         [-trace-sample P] [-debug-addr host:port]
//	         [-push-to URL -node-id ID] [-push-every 10s]
//
// With -trace-sample P (0 < P <= 1) the server records spans for the
// sampled fraction of requests — through enqueue, flush, WAL append,
// sink apply, and federation push — served at GET /debug/traces.
// -debug-addr exposes net/http/pprof on a separate listener (off by
// default; keep it loopback-only).
//
// With -push-to the server is a federation child: it keeps serving local
// ingest and queries while periodically shipping its whole state to the
// parent's POST /v1/merge endpoint (a bare host:port grows the scheme
// and path). -node-id must be stable and unique per node — the parent
// keeps the latest push per node and dedups replays by (node, epoch,
// seq). Every server is a merge target at /v1/merge, so any server can
// be an interior node of a deeper tree: it pushes its whole view, its
// own pipeline plus every child's latest push, so the top of a tree
// answers for every node's stream. Trees, not DAGs: a node reachable by
// two paths is counted twice, and a cycle (A pushes to B, B to A) makes
// counts grow on every push without limit; a push from the server's own
// -node-id is refused with 409 "cycle". A node whose counts must
// survive its own restart needs -data-dir.
//
// Aggregate specs use the same options as the library constructors:
//
//	aggserve -agg hot=freq,eps=0.001 \
//	         -agg sketch=count-min,eps=1e-4,seed=7,shards=4 \
//	         -agg dist=count-min-range,bits=20
//
// Without -agg flags the demo trio server.DemoSpecs (hot=freq,
// sketch=count-min, dist=count-min-range,bits=20) is served.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/server"
)

func main() {
	config := server.RegisterFlags(flag.CommandLine)
	flag.Parse()
	cfg := config()
	cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if len(cfg.Specs) == 0 {
		cfg.Specs = server.DemoSpecs
		cfg.Logger.Info("no -agg flags; serving demo aggregates", "specs", cfg.Specs)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := server.Run(ctx, cfg); err != nil {
		cfg.Logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}
