package server

// Run is the serve loop behind cmd/aggserve: build a pipeline from
// aggregate specs, wrap it in a Server with the given batching and
// durability knobs (recovering from the data directory when one is
// set), serve until ctx is canceled (or the listener fails), then shut
// down gracefully — in-flight requests finish, the ingest queue drains
// into the aggregates, and a durable server writes its shutdown
// snapshot. RegisterFlags is its command line.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"time"

	streamagg "repro"
	"repro/federation"
)

// drainTimeout bounds graceful shutdown once ctx is canceled.
const drainTimeout = 15 * time.Second

// DemoSpecs is the aggregate trio served when no spec is given.
var DemoSpecs = []string{
	"hot=freq,eps=0.001",
	"sketch=count-min,eps=1e-4,seed=7",
	"dist=count-min-range,bits=20",
}

// RunConfig carries the serving flags (see RegisterFlags).
type RunConfig struct {
	// Addr is the listen address (e.g. ":8080").
	Addr string
	// Specs are aggregate specs in the name=kind[,opt=value]... syntax.
	Specs []string

	// Batching knobs; zero values mean "library default", except
	// MaxLatency whose unset sentinel is negative (0 is meaningful).
	BatchSize    int
	MaxLatency   time.Duration
	QueueCap     int
	Backpressure string

	// Durability knobs: an empty DataDir disables persistence; Fsync is
	// "always", "interval", or "never"; SnapshotEvery is in minibatches.
	DataDir       string
	Fsync         string
	SnapshotEvery int

	// Parallelism, when positive, is the worker budget for parallel
	// ingestion (streamagg.SetParallelism); zero keeps GOMAXPROCS.
	Parallelism int

	// NoMetrics disables the GET /metrics exposition endpoint (the
	// zero value serves it; -metrics=false maps here).
	NoMetrics bool

	// TraceSample is the root-span sampling probability in [0, 1] for
	// the server's tracer (0, the zero value, records nothing and costs
	// nothing). Sampled traces are served at GET /debug/traces.
	TraceSample float64

	// DebugAddr, when non-empty, serves net/http/pprof on its own
	// listener (e.g. "localhost:6060") — separate from Addr so the
	// profiling surface is never exposed where the data plane is.
	DebugAddr string

	// Federation push knobs: a non-empty PushTo makes this server a
	// child that periodically ships its whole state (its view, if
	// children push to it) to a parent's /v1/merge URL. NodeID must be
	// stable and unique per node (required with PushTo); PushEvery
	// defaults to 10s.
	PushTo    string
	PushEvery time.Duration
	NodeID    string

	// Logger receives progress records; nil discards them.
	Logger *slog.Logger
}

// RegisterFlags registers one flag per RunConfig field except Logger on
// fs. The returned function yields the parsed RunConfig after fs.Parse.
func RegisterFlags(fs *flag.FlagSet) func() RunConfig {
	var cfg RunConfig
	fs.Func("agg", "aggregate spec name=kind[,opt=value]... (repeatable)", func(s string) error {
		cfg.Specs = append(cfg.Specs, s)
		return nil
	})
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.BatchSize, "batch", 0, "minibatch flush threshold (default 8192)")
	// Registered with default 0 so -h prints no sentinel; an omitted
	// -latency becomes -1 (library default) below, since 0 is meaningful.
	fs.DurationVar(&cfg.MaxLatency, "latency", 0, "max time a queued update may wait (default 5ms; 0 = flush immediately)")
	fs.IntVar(&cfg.QueueCap, "queue", 0, "ingest queue capacity in items (default 4x batch)")
	fs.StringVar(&cfg.Backpressure, "backpressure", "block", "full-queue policy: block, reject, or drop")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "durability directory: WAL + snapshots, recovered on startup (default in-memory only)")
	fs.StringVar(&cfg.Fsync, "fsync", "", "WAL sync policy: always, interval, or never (default always; needs -data-dir)")
	fs.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "snapshot after N logged minibatches (default 4096; needs -data-dir)")
	fs.IntVar(&cfg.Parallelism, "parallelism", 0, "worker budget for parallel ingestion (default GOMAXPROCS)")
	metricsOn := fs.Bool("metrics", true, "serve the Prometheus exposition at GET /metrics")
	fs.Float64Var(&cfg.TraceSample, "trace-sample", 0, "span sampling probability in [0,1] (0 disables tracing; traces at GET /debug/traces)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", "", "separate listener for net/http/pprof, e.g. localhost:6060 (default off)")
	fs.StringVar(&cfg.PushTo, "push-to", "", "federation root URL to push summaries to (host:port or full /v1/merge URL)")
	fs.DurationVar(&cfg.PushEvery, "push-every", 0, "interval between federation pushes (default 10s; needs -push-to)")
	fs.StringVar(&cfg.NodeID, "node-id", "", "stable unique edge identity for federation dedup (required with -push-to)")
	return func() RunConfig {
		cfg.NoMetrics = !*metricsOn
		latencySet := false
		fs.Visit(func(f *flag.Flag) { latencySet = latencySet || f.Name == "latency" })
		if !latencySet {
			cfg.MaxLatency = -1
		}
		return cfg
	}
}

// options assembles the Ingestor option list from the flag values.
func (cfg RunConfig) options() ([]streamagg.Option, error) {
	opts, err := IngestOptions(cfg.BatchSize, cfg.MaxLatency, cfg.QueueCap, cfg.Backpressure)
	if err != nil {
		return nil, err
	}
	durOpts, err := DurabilityOptions(cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery)
	if err != nil {
		return nil, err
	}
	return append(opts, durOpts...), nil
}

// NormalizePushURL turns a -push-to value into a full merge URL:
// a bare host:port gets the http scheme and the /v1/merge path, a URL
// without a path gets /v1/merge appended, and a full URL passes
// through.
func NormalizePushURL(raw string) (string, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("%w: push target %q", streamagg.ErrBadParam, raw)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/v1/merge"
	}
	return u.String(), nil
}

// pushTarget checks the federation push knobs and returns the merge
// URL, or "" when cfg.PushTo is empty. Run calls it before New takes
// the data directory's lock.
func (cfg RunConfig) pushTarget() (string, error) {
	if cfg.PushTo == "" {
		if cfg.PushEvery != 0 || cfg.NodeID != "" {
			return "", fmt.Errorf("%w: -push-every and -node-id require -push-to",
				streamagg.ErrBadParam)
		}
		return "", nil
	}
	if cfg.NodeID == "" || len(cfg.NodeID) > federation.MaxNodeID {
		return "", fmt.Errorf("%w: -push-to requires -node-id (a stable, unique edge identity of 1..%d bytes)",
			streamagg.ErrBadParam, federation.MaxNodeID)
	}
	return NormalizePushURL(cfg.PushTo)
}

// debugServer serves net/http/pprof on addr. The default mux is
// deliberately avoided: only the profiling routes exist here, and only
// on this listener.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}

// Run blocks until ctx is canceled or serving fails. It checks cfg in
// full before it opens the data directory, and on a later failure it
// stops the pusher and closes the Ingestor, so an error never leaves
// the directory locked.
func Run(ctx context.Context, cfg RunConfig) error {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return fmt.Errorf("%w: trace sample rate %v (want in [0, 1])",
			streamagg.ErrBadParam, cfg.TraceSample)
	}
	pushURL, err := cfg.pushTarget()
	if err != nil {
		return err
	}
	pipe := streamagg.NewPipeline()
	if err := AddSpecs(pipe, cfg.Specs); err != nil {
		return err
	}
	opts, err := cfg.options()
	if err != nil {
		return err
	}
	if cfg.Parallelism > 0 {
		streamagg.SetParallelism(cfg.Parallelism)
	}
	srv, err := New(pipe, opts...)
	if err != nil {
		return err
	}
	srv.node = cfg.NodeID
	srv.SetMetricsEnabled(!cfg.NoMetrics)
	srv.Tracer().SetSampleRate(cfg.TraceSample)
	if cfg.TraceSample > 0 {
		logger.Info("tracing enabled", "sample_rate", cfg.TraceSample)
	}
	if st := srv.Ingestor().Persist(); st != nil {
		s := st.Stats()
		logger.Info("recovered",
			"dir", s.Dir, "snapshot_seq", s.SnapshotSeq, "replayed_batches", s.ReplayedRecords,
			"stream_len", pipe.StreamLen(), "fsync", s.Fsync)
	}
	if cfg.DebugAddr != "" {
		ds := debugServer(cfg.DebugAddr)
		go func() {
			logger.Info("debug listener (pprof) serving", "addr", cfg.DebugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "addr", cfg.DebugAddr, "err", err)
			}
		}()
		defer func() {
			closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = ds.Shutdown(closeCtx)
		}()
	}
	var pusher *federation.Pusher
	pushDone := make(chan struct{})
	pushCtx, stopPush := context.WithCancel(ctx)
	defer stopPush()
	if pushURL == "" {
		close(pushDone)
	} else {
		// The pusher shares the server's tracer and parents its push
		// spans on the last sampled ingest, so a trace recorded at this
		// edge continues through the root's merge.
		pusher, err = federation.NewPusher(federation.PusherConfig{
			URL:      pushURL,
			Node:     cfg.NodeID,
			Source:   srv,
			Interval: cfg.PushEvery,
			Registry: srv.Metrics(),
			Logger:   logger,
			Tracer:   srv.Tracer(),
			Parent:   srv.LastIngestContext,
		})
		if err != nil {
			return errors.Join(err, srv.Ingestor().Close())
		}
		go func() {
			defer close(pushDone)
			logger.Info("pushing",
				"target", cfg.PushTo, "interval", pusher.Interval(), "node", cfg.NodeID,
				"epoch", pusher.Epoch())
			_ = pusher.Run(pushCtx)
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", cfg.Addr, "aggregates", pipe.Len())
		errCh <- srv.ListenAndServe(cfg.Addr)
	}()
	select {
	case err := <-errCh:
		stopPush()
		<-pushDone
		return errors.Join(err, srv.Ingestor().Close())
	case <-ctx.Done():
		if pusher != nil {
			// Final push before the ingestor closes: drain what is
			// queued so the capture includes it, then ship. Items a
			// client sneaks in between this and the listener shutdown
			// stay local (and, on a durable edge, are recovered and
			// pushed by the next process lifetime).
			<-pushDone
			finalCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			if err := srv.Ingestor().Flush(); err != nil {
				logger.Warn("pre-push flush failed", "err", err)
			}
			if err := pusher.Final(finalCtx); err != nil {
				logger.Warn("final push failed", "err", err)
			} else {
				logger.Info("final push delivered")
			}
			cancel()
		}
		logger.Info("shutting down: draining ingest queue")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		st := srv.Ingestor().Stats()
		logger.Info("drained", "items", st.Processed, "batches", st.Batches)
		return nil
	}
}
