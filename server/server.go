// Package server exposes a streamagg Pipeline over HTTP/JSON — the
// serving layer in front of the paper's minibatch compute backend.
// Incoming updates are routed through an Ingestor (the asynchronous
// minibatcher with backpressure), so arbitrarily small ingest requests
// still reach the aggregates as well-sized minibatches; queries are
// answered at minibatch boundaries through the Pipeline's keyed surface.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/ingest           {"items":[..],"strings":[..],"sync":bool} or a bare array
//	POST /v1/flush            drain the ingest queue into the aggregates
//	GET  /v1/{agg}/estimate   ?item=N | ?key=S (hashed)
//	GET  /v1/{agg}/value
//	GET  /v1/{agg}/heavyhitters  ?phi=F
//	GET  /v1/{agg}/topk       ?k=N
//	GET  /v1/{agg}/rangecount ?lo=N&hi=N
//	GET  /v1/{agg}/quantile   ?q=F
//	GET  /v1/stats            pipeline + ingest counters
//	GET  /v1/persist/stats    durability (WAL + snapshot) counters
//	POST /v1/checkpoint       drained, atomic; returns the envelope (octet-stream);
//	                          at a federation root, the local base only
//	POST /v1/restore          body = a checkpoint envelope
//	POST /v1/merge            body = a federation envelope (see handleMerge)
//	GET  /healthz
//
// With a data directory configured (WithDataDir / -data-dir), the server
// recovers its state on startup from the persist subsystem's newest
// snapshot plus WAL replay, and every applied minibatch is logged before
// it becomes queryable; /v1/persist/stats reports the WAL position,
// snapshot progress, and fsync counters (404 when durability is off).
//
// Unknown aggregate names map to 404, unsupported queries and bad
// parameters to 400, a full queue under BackpressureReject to 429, and a
// closed ingestor to 503.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	streamagg "repro"
	"repro/federation"
	"repro/metrics"
	"repro/trace"
)

// Request-body caps: ingest requests are bounded to keep one client from
// ballooning the heap; checkpoint envelopes are sketches and summaries,
// small by construction, but sharded pipelines multiply them.
const (
	maxIngestBody     = 64 << 20
	maxCheckpointBody = 256 << 20
)

// Server serves one Pipeline over HTTP, with all ingestion funneled
// through a single Ingestor.
type Server struct {
	pipe  *streamagg.Pipeline
	ing   *streamagg.Ingestor
	mux   *http.ServeMux
	hs    *http.Server
	start time.Time

	reg       *metrics.Registry
	m         *serverMetrics
	metricsOn atomic.Bool

	// Tracing: tracer samples and retains spans (rate 0 by default —
	// the disabled path stays allocation-free); lastIngest remembers the
	// most recent sampled ingest root so the federation pusher can join
	// its trace (edge capture → push → root merge as one trace);
	// notReady, when non-nil, is the reason /readyz answers 503
	// (restore replay in progress, graceful drain).
	tracer     *trace.Tracer
	lastIngest atomic.Pointer[trace.SpanContext]
	notReady   atomic.Pointer[string]

	// Federation: fed folds POST /v1/merge pushes from child nodes
	// into the merged global view that queries and Capture read.
	fed *federation.Root
	// node is this server's own federation node ID when it pushes to a
	// parent (Run sets it from -node-id); a push that carries it back
	// is refused.
	node string

	// Bounded-ingest validation: the tightest per-value bound among the
	// pipeline's members (MaxUint64 when none is bounded), and who
	// imposes it. Ingest requests are checked against it at enqueue
	// time so one poison value gets its own 400 instead of failing the
	// whole coalesced minibatch it would be batched into. Restore
	// rebuilds the aggregates (possibly with a different bound) and
	// republishes; boundMu spans each handler's validate+enqueue pair
	// so an item can never be enqueued against a bound that a
	// concurrent restore has already replaced.
	bound   atomic.Pointer[ingestBound]
	boundMu sync.RWMutex
}

// ingestBound is the published enqueue-time validation limit.
type ingestBound struct {
	max uint64
	agg string
}

// computeBound scans the pipeline for the tightest bounded-kind limit
// and publishes it.
func (s *Server) computeBound() {
	b := &ingestBound{max: math.MaxUint64}
	for _, name := range s.pipe.Names() {
		if agg, ok := s.pipe.Get(name); ok {
			if ba, ok := agg.(interface{ MaxValue() uint64 }); ok && ba.MaxValue() < b.max {
				b.max, b.agg = ba.MaxValue(), name
			}
		}
	}
	s.bound.Store(b)
}

// New builds a Server over pipe. Options are the Ingestor's batching
// subset (WithBatchSize, WithMaxLatency, WithQueueCap, WithBackpressure,
// plus the durability and metrics options); anything else is rejected
// with streamagg.ErrBadParam. The server's observability registry —
// shared with the Ingestor and, for a durable server, the persist
// store — is served at GET /metrics.
func New(pipe *streamagg.Pipeline, opts ...streamagg.Option) (*Server, error) {
	if pipe == nil {
		return nil, fmt.Errorf("%w: nil pipeline", streamagg.ErrBadParam)
	}
	// The server's defaults go first so caller-supplied options (applied
	// later) win; either way the Ingestor tells us which registry and
	// tracer it actually publishes to. The default tracer samples
	// nothing — tracing is armed per deployment via WithTracer or
	// Tracer().SetSampleRate.
	ing, err := streamagg.NewIngestor(pipe,
		append([]streamagg.Option{
			streamagg.WithMetricsRegistry(metrics.NewRegistry()),
			streamagg.WithTracer(trace.New(trace.Config{SampleRate: 0})),
		}, opts...)...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pipe:   pipe,
		ing:    ing,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		reg:    ing.MetricsRegistry(),
		tracer: ing.Tracer(),
	}
	s.metricsOn.Store(true)
	s.computeBound()
	s.m = newServerMetrics(s.reg, pipe, s.start)
	s.fed = federation.NewRoot(pipe, s.reg)
	s.mux.HandleFunc("POST /v1/merge", s.instrument("merge", s.handleMerge))
	s.mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v1/flush", s.instrument("flush", s.handleFlush))
	s.mux.HandleFunc("POST /v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("POST /v1/restore", s.instrument("restore", s.handleRestore))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/persist/stats", s.instrument("persist_stats", s.handlePersistStats))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/traces", s.tracer.Handler())
	s.mux.HandleFunc("GET /v1/{agg}/{verb}", s.instrument("query", s.handleQuery))
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s, nil
}

// SetMetricsEnabled gates GET /metrics (enabled by default); disabled,
// the endpoint 404s. The instruments keep updating either way.
func (s *Server) SetMetricsEnabled(on bool) { s.metricsOn.Store(on) }

// Metrics returns the server's observability registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Tracer returns the server's span tracer (never nil; sampling rate 0
// unless configured otherwise).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// LastIngestContext returns the span context of the most recent sampled
// ingest request (zero value if none was sampled yet). The federation
// pusher uses it to parent its push span, so one trace follows data
// from edge capture through the root's merge.
func (s *Server) LastIngestContext() trace.SpanContext {
	if p := s.lastIngest.Load(); p != nil {
		return *p
	}
	return trace.SpanContext{}
}

// Handler returns the route table, for mounting under httptest or an
// outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline returns the served pipeline.
func (s *Server) Pipeline() *streamagg.Pipeline { return s.pipe }

// Ingestor returns the serving-side minibatcher.
func (s *Server) Ingestor() *streamagg.Ingestor { return s.ing }

// ListenAndServe binds addr and serves until Shutdown. The nil error on
// graceful shutdown follows http.ErrServerClosed semantics, already
// translated.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the HTTP listener (waiting for in-flight
// requests up to the context's deadline), then drains and closes the
// Ingestor so nothing accepted is lost. The drain also honors ctx: on
// expiry Shutdown returns the context error while the drain keeps
// running in the background — the caller's kill window, not the queue
// depth, bounds how long shutdown takes.
func (s *Server) Shutdown(ctx context.Context) error {
	// Fail readiness first: a load balancer probing /readyz stops
	// routing new work while in-flight requests finish.
	reason := "draining"
	s.notReady.Store(&reason)
	httpErr := s.hs.Shutdown(ctx)
	drained := make(chan error, 1)
	go func() { drained <- s.ing.Close() }()
	var ingErr error
	select {
	case ingErr = <-drained:
	case <-ctx.Done():
		ingErr = fmt.Errorf("draining ingest queue: %w", ctx.Err())
	}
	if httpErr != nil {
		return httpErr
	}
	return ingErr
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ingestRequest is the rich form of the ingest body; a bare JSON array
// is accepted as {"items": [...]}.
type ingestRequest struct {
	Items   []uint64 `json:"items"`
	Strings []string `json:"strings"`
	Sync    bool     `json:"sync"`
}

// readBody reads a capped request body, mapping only actual cap hits to
// 413 (other read failures — resets, timeouts — are the client's 400).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	var buf bytes.Buffer
	return readBodyInto(&buf, w, r, limit)
}

// readBodyInto is readBody reading into a caller-owned (typically
// pooled) buffer; the returned bytes alias it.
func readBodyInto(buf *bytes.Buffer, w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return buf.Bytes(), true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
	}
	return nil, false
}

// ingestScratch holds one ingest request's reusable buffers: the raw
// body, the decoded fields (json.Unmarshal refills the existing Items
// backing array), and the merged items+hashed-strings slice. Pooled —
// the hot ingest path allocates nothing once the pool is warm. Safe to
// recycle because PutBatchContext copies the items before returning.
type ingestScratch struct {
	body   bytes.Buffer
	req    ingestRequest
	merged []uint64
}

var ingestPool = sync.Pool{New: func() any { return new(ingestScratch) }}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := ingestPool.Get().(*ingestScratch)
	defer ingestPool.Put(sc)
	body, ok := readBodyInto(&sc.body, w, r, maxIngestBody)
	if !ok {
		return
	}
	sc.req.Items = sc.req.Items[:0]
	sc.req.Strings = sc.req.Strings[:0]
	sc.req.Sync = false
	req := &sc.req
	var err error
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		var fast bool
		if req.Items, fast = parseUintArray(req.Items, trimmed); !fast {
			err = json.Unmarshal(trimmed, &req.Items)
		}
	} else {
		err = json.Unmarshal(body, req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed ingest body: %w", err))
		return
	}
	items := req.Items
	if len(req.Strings) > 0 {
		merged := sc.merged[:0]
		merged = append(merged, items...)
		for _, key := range req.Strings {
			merged = append(merged, streamagg.HashString(key))
		}
		sc.merged = merged
		items = merged
	}
	// Validate bounded-kind items before they enter the queue: a value
	// over a member aggregate's bound would otherwise fail the whole
	// coalesced minibatch downstream — poisoning innocent co-batched
	// items from other clients and wedging the sink with a sticky
	// error. Rejected here, the bad request gets its own 400 and
	// nothing is enqueued. The read lock is held through the enqueue so
	// a concurrent restore cannot install a tighter bound between the
	// check and the queue (a parked producer holding it never blocks
	// the drain that would free it — the flush worker takes no lock).
	s.boundMu.RLock()
	if b := s.bound.Load(); b.max < math.MaxUint64 {
		for i, v := range items {
			if v > b.max {
				s.boundMu.RUnlock()
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("item[%d]=%d exceeds aggregate %q's value bound %d; batch refused",
						i, v, b.agg, b.max))
				return
			}
		}
	}
	// Context-aware: a client that disconnects while parked on a full
	// queue (BackpressureBlock) unblocks instead of leaking the handler.
	// On a sampled request the enqueue span's context rides into the
	// queue with the items, so the eventual flush joins this trace; on
	// the unsampled path every span below is nil and free.
	span := trace.SpanFromContext(r.Context())
	enq := s.tracer.Child("ingest.enqueue", span.Context())
	enq.SetInt("items", int64(len(items)))
	accepted, err := s.ing.PutBatchSpan(r.Context(), items, enq.Context())
	s.boundMu.RUnlock()
	enq.SetInt("accepted", int64(accepted))
	if err != nil {
		enq.SetAttr("error", err.Error())
	}
	enq.End()
	if sc := span.Context(); sc.Sampled {
		s.lastIngest.Store(&sc)
	}
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, streamagg.ErrOverloaded):
			code = http.StatusTooManyRequests
		case errors.Is(err, streamagg.ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			code = http.StatusRequestTimeout
		}
		// A blocked producer may have had a prefix accepted (and it will
		// still be flushed); report it so retries don't double-ingest.
		writeJSON(w, code, map[string]any{
			"error":    err.Error(),
			"accepted": accepted,
			"dropped":  0,
		})
		return
	}
	if req.Sync {
		if err := s.ing.Flush(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":    accepted,
		"dropped":     len(items) - accepted,
		"queue_depth": s.ing.QueueDepth(),
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.ing.Flush(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream_len": s.pipe.StreamLen()})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ckpt, err := s.ing.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(ckpt)
}

// Federation returns the merge fan-in target behind POST /v1/merge.
func (s *Server) Federation() *federation.Root { return s.fed }

// Capture implements federation.Source: what this node pushes to its
// parent. It sends the node's whole view, its pipeline ⊕ every child's
// latest part, so the leaves' data reaches the top of a tree; a node no
// child pushes to has the pipeline itself as its view, so it builds
// nothing. The parent replaces this node's part wholesale, so the push
// stays idempotent. Marshalling takes the pipeline's batch lock, so the
// bytes are at a minibatch boundary.
func (s *Server) Capture() ([]byte, error) {
	// Drain what is queued into the pipeline first. A sticky batch error
	// is the ingest path's to report (Checkpoint ignores it too), so it
	// does not stop the push.
	_ = s.ing.Flush()
	return s.fed.View().MarshalBinary()
}

// handleMerge lands one federation push (see the federation package for
// envelope and dedup semantics). Replies: 200 applied; 409 with a
// machine-readable "reason" of "duplicate"/"stale" (already landed,
// safe to drop), "incompatible" (will never land) or "cycle" (the push
// came from this server's own node ID, see Run); 429 with reason
// "capacity" for a new node past federation.MaxNodes (retried); 400 for
// bodies that don't decode.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxCheckpointBody)
	if !ok {
		return
	}
	env, err := federation.DecodeEnvelope(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.node != "" && env.Node == s.node {
		// This server's own view coming back to it: the push target
		// leads back here, and every round would add the view to itself.
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("federation: push from this server's own node ID %q (a push cycle)", env.Node),
			"reason": "cycle",
		})
		return
	}
	// When the pushing edge sampled this trace, the middleware joined it
	// via traceparent; the apply span then completes the cross-node
	// picture: edge capture → push → root merge, one trace ID.
	span := trace.SpanFromContext(r.Context())
	apply := s.tracer.Child("federation.apply", span.Context())
	apply.SetAttr("node", env.Node)
	apply.SetInt("epoch", int64(env.Epoch))
	apply.SetInt("seq", int64(env.Seq))
	applyErr := s.fed.Apply(env)
	if applyErr != nil {
		apply.SetAttr("error", applyErr.Error())
	}
	apply.End()
	if err := applyErr; err != nil {
		var stale *federation.StaleError
		switch {
		case errors.As(err, &stale):
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  err.Error(),
				"reason": stale.Reason(),
				"epoch":  stale.Epoch,
				"seq":    stale.Seq,
			})
		case federation.Incompatible(err):
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  err.Error(),
				"reason": "incompatible",
			})
		case errors.Is(err, federation.ErrCapacity):
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":  err.Error(),
				"reason": "capacity",
			})
		case errors.Is(err, federation.ErrBadEnvelope), errors.Is(err, streamagg.ErrBadParam):
			writeError(w, http.StatusBadRequest, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if env.Mode == federation.ModeDelta {
		// A delta from an older edge merged into the base outside the
		// WAL'd ingest path; snapshot so a crash doesn't silently drop
		// an acknowledged push. Best-effort, like the background
		// snapshotter: on failure the push is still applied in memory
		// and the store records the failure.
		_ = s.ing.ForceSnapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": true,
		"node":    env.Node,
		"epoch":   env.Epoch,
		"seq":     env.Seq,
	})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxCheckpointBody)
	if !ok {
		return
	}
	// Restore rebuilds the aggregates from the envelope, whose
	// parameters (e.g. a WindowSum bound) need not match the serving
	// config — republish the enqueue-time validation limit. The write
	// lock excludes in-flight ingest validate+enqueue pairs. Readiness
	// fails for the duration: queries answered mid-rebuild would mix
	// old and new state.
	reason := "restoring"
	s.notReady.Store(&reason)
	defer s.notReady.CompareAndSwap(&reason, nil)
	s.boundMu.Lock()
	err := s.ing.Restore(body)
	if err == nil {
		s.computeBound()
		// The restored base may share the old stream length; drop the
		// cached federation view rather than risk serving it.
		s.fed.Invalidate()
	}
	s.boundMu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stream_len": s.pipe.StreamLen()})
}

// aggInfo is one pipeline member in the stats response.
type aggInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	StreamLen  int64  `json:"stream_len"`
	SpaceWords int    `json:"space_words"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	names := s.pipe.Names()
	aggs := make([]aggInfo, 0, len(names))
	for _, name := range names {
		agg, ok := s.pipe.Get(name)
		if !ok {
			continue
		}
		aggs = append(aggs, aggInfo{
			Name:       name,
			Kind:       string(agg.Kind()),
			StreamLen:  agg.StreamLen(),
			SpaceWords: agg.SpaceWords(),
		})
	}
	stats := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"stream_len":     s.pipe.StreamLen(),
		"space_words":    s.pipe.SpaceWords(),
		"aggregates":     aggs,
		"ingest":         s.ing.Stats(),
	}
	if nodes := s.fed.Nodes(); len(nodes) > 0 {
		stats["federation"] = map[string]any{"nodes": nodes}
	}
	// Exemplars: the trace behind each handler's slowest observed
	// request, when tracing has sampled one — the bridge from "p99 is
	// bad" to the exact trace that caused it.
	slowest := make(map[string]any)
	for label, h := range s.m.latency {
		if tid, v := h.Exemplar(); tid != "" {
			slowest[label] = map[string]any{
				"trace_id": tid,
				"seconds":  float64(v) / 1e9,
			}
		}
	}
	if len(slowest) > 0 {
		stats["slowest"] = slowest
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handlePersistStats(w http.ResponseWriter, r *http.Request) {
	st := s.ing.Persist()
	if st == nil {
		writeError(w, http.StatusNotFound, errors.New("durability not configured (start with -data-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, st.Stats())
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It never reports anything else — restart-worthy conditions
// (deadlock, OOM) can't answer at all, and everything softer belongs to
// readiness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 503 with a reason while the
// server should not receive traffic (restore replay in progress,
// graceful drain), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if reason := s.notReady.Load(); reason != nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "reason": *reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// param helpers: every malformed value is a 400 with the offending name.
func floatParam(r *http.Request, name string, def float64) (float64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, s)
	}
	return v, nil
}

func uintParam(r *http.Request, name string, def uint64) (uint64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, s)
	}
	return v, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, s)
	}
	return v, nil
}

// handleQuery dispatches the six query verbs through the Pipeline's
// keyed surface. Queries see the state as of the last flushed minibatch
// boundary; clients that need read-your-writes POST /v1/flush (or ingest
// with "sync":true) first. On a federation root the verbs read the
// merged global view (local pipeline ⊕ every edge's contribution);
// without pushes that view IS the local pipeline, at zero extra cost.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("agg")
	verb := r.PathValue("verb")
	pipe := s.fed.View()
	var result any
	var err error
	switch verb {
	case "estimate":
		var item uint64
		switch {
		case r.URL.Query().Get("key") != "":
			item = streamagg.HashString(r.URL.Query().Get("key"))
		case r.URL.Query().Get("item") != "":
			if item, err = uintParam(r, "item", 0); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		default:
			writeError(w, http.StatusBadRequest, errors.New("estimate needs ?item=N or ?key=S"))
			return
		}
		var est int64
		est, err = pipe.Estimate(name, item)
		result = map[string]any{"item": item, "estimate": est}
	case "value":
		var v int64
		v, err = pipe.Value(name)
		result = map[string]any{"value": v}
	case "heavyhitters":
		var phi float64
		if phi, err = floatParam(r, "phi", 0.01); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// NaN fails both comparisons, so it lands here too.
		if !(phi > 0 && phi <= 1) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: phi=%v (want in (0, 1])", streamagg.ErrBadParam, phi))
			return
		}
		var items []streamagg.ItemCount
		items, err = pipe.HeavyHitters(name, phi)
		result = map[string]any{"phi": phi, "items": itemCounts(items)}
	case "topk":
		var k int
		if k, err = intParam(r, "k", 10); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if k < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: k=%d (want >= 0)", streamagg.ErrBadParam, k))
			return
		}
		var items []streamagg.ItemCount
		items, err = pipe.TopK(name, k)
		result = map[string]any{"k": k, "items": itemCounts(items)}
	case "rangecount":
		var lo, hi uint64
		if lo, err = uintParam(r, "lo", 0); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if hi, err = uintParam(r, "hi", 0); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if lo > hi {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: empty range lo=%d > hi=%d", streamagg.ErrBadParam, lo, hi))
			return
		}
		var count int64
		count, err = pipe.RangeCount(name, lo, hi)
		result = map[string]any{"lo": lo, "hi": hi, "count": count}
	case "quantile":
		var q float64
		if q, err = floatParam(r, "q", 0.5); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !(q >= 0 && q <= 1) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: q=%v (want in [0, 1])", streamagg.ErrBadParam, q))
			return
		}
		var v uint64
		v, err = pipe.Quantile(name, q)
		result = map[string]any{"q": q, "quantile": v}
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query verb %q", verb))
		return
	}
	if err != nil {
		switch {
		case errors.Is(err, streamagg.ErrNoSuchAggregate):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, streamagg.ErrUnsupportedQuery), errors.Is(err, streamagg.ErrBadParam):
			writeError(w, http.StatusBadRequest, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// itemCount mirrors streamagg.ItemCount with JSON tags.
type itemCount struct {
	Item  uint64 `json:"item"`
	Count int64  `json:"count"`
}

func itemCounts(in []streamagg.ItemCount) []itemCount {
	out := make([]itemCount, len(in))
	for i, ic := range in {
		out[i] = itemCount{Item: ic.Item, Count: ic.Count}
	}
	return out
}
