package server

// HTTP-layer observability: every route is wrapped in an instrument
// middleware that tracks in-flight requests, per-handler latency
// histograms, and status-class counters; the pipeline's per-aggregate
// stream lengths and the Sharded merge-cache counters are exported as
// render-time callbacks. Everything lands in the same registry the
// Ingestor and the persist store publish to, so GET /metrics exposes
// all four layers — aggregates, Sharded, Ingestor, WAL — in one scrape.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	streamagg "repro"
	"repro/metrics"
	"repro/trace"
)

// queryVerbs are the /v1/{agg}/{verb} routes, each its own latency
// series; anything else under the wildcard rolls up into query_other.
var queryVerbs = []string{"estimate", "value", "heavyhitters", "topk", "rangecount", "quantile"}

// instrumentedHandlers lists every label the middleware may emit, so
// all series exist from the first scrape (no lock is ever taken on the
// request path to create one lazily).
var instrumentedHandlers = func() []string {
	hs := []string{"ingest", "flush", "checkpoint", "restore", "merge", "stats", "persist_stats", "healthz", "readyz", "query_other"}
	for _, v := range queryVerbs {
		hs = append(hs, "query_"+v)
	}
	return hs
}()

var statusClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

type serverMetrics struct {
	inFlight *metrics.Gauge
	latency  map[string]*metrics.Histogram
	requests map[string]*metrics.Counter // key: handler + "|" + class
	spanName map[string]string           // label -> "http.<label>", precomputed (no per-request concat)
}

// newServerMetrics pre-creates the HTTP instruments and registers the
// pipeline-layer callbacks on reg.
func newServerMetrics(reg *metrics.Registry, pipe *streamagg.Pipeline, start time.Time) *serverMetrics {
	m := &serverMetrics{
		inFlight: reg.Gauge("streamagg_http_in_flight_requests",
			"Requests currently being served."),
		latency:  make(map[string]*metrics.Histogram, len(instrumentedHandlers)),
		requests: make(map[string]*metrics.Counter, len(instrumentedHandlers)*len(statusClasses)),
		spanName: make(map[string]string, len(instrumentedHandlers)),
	}
	for _, h := range instrumentedHandlers {
		m.spanName[h] = "http." + h
		m.latency[h] = reg.Histogram("streamagg_http_request_seconds",
			"Request latency by handler.", metrics.UnitSeconds, "handler", h)
		for _, c := range statusClasses {
			m.requests[h+"|"+c] = reg.Counter("streamagg_http_requests_total",
				"Requests by handler and status class.", "handler", h, "code", c)
		}
	}
	reg.GaugeFunc("streamagg_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(start).Seconds() })
	// Build and runtime identity, following the Prometheus conventions:
	// a constant-1 info gauge carrying version labels, the canonical
	// process start time, and a live goroutine count.
	version, goversion := "unknown", runtime.Version()
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Version != "" {
			version = info.Main.Version
		}
		if info.GoVersion != "" {
			goversion = info.GoVersion
		}
	}
	reg.Gauge("app_build_info", "Build metadata; the value is always 1.",
		"version", version, "goversion", goversion).Set(1)
	reg.Gauge("process_start_time_seconds", "Unix time the process started.").
		Set(start.Unix())
	reg.GaugeFunc("go_goroutines", "Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// The callbacks resolve the aggregate by name at render time rather
	// than capturing the instance: a restore rebuilds the pipeline's
	// aggregates, and a captured pointer would keep reporting the dead
	// pre-restore object forever.
	for _, name := range pipe.Names() {
		agg, ok := pipe.Get(name)
		if !ok {
			continue
		}
		reg.GaugeFunc("streamagg_aggregate_stream_length",
			"Stream elements ingested per aggregate.",
			func() float64 {
				if a, ok := pipe.Get(name); ok {
					return float64(a.StreamLen())
				}
				return 0
			}, "aggregate", name)
		reg.GaugeFunc("streamagg_aggregate_space_words",
			"Memory footprint per aggregate in 64-bit words.",
			func() float64 {
				if a, ok := pipe.Get(name); ok {
					return float64(a.SpaceWords())
				}
				return 0
			}, "aggregate", name)
		if _, ok := agg.(*streamagg.Sharded); ok {
			cache := func(pick func(hits, misses int64) int64) func() int64 {
				return func() int64 {
					if a, ok := pipe.Get(name); ok {
						if sh, ok := a.(*streamagg.Sharded); ok {
							return pick(sh.MergeCacheStats())
						}
					}
					return 0
				}
			}
			reg.CounterFunc("streamagg_sharded_merge_cache_hits_total",
				"Global-summary queries served from the cached merged view.",
				cache(func(h, _ int64) int64 { return h }), "aggregate", name)
			reg.CounterFunc("streamagg_sharded_merge_cache_misses_total",
				"Global-summary queries that rebuilt the merged view.",
				cache(func(_, m int64) int64 { return m }), "aggregate", name)
		}
	}
	return m
}

// statusWriter captures the response code for the status-class counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler under a fixed label ("ingest", "query",
// ...); the query wildcard resolves to its verb per request. The
// middleware only touches pre-created instruments — atomic adds, no
// locks — so it adds nothing measurable to request cost. It is also
// the tracing entry point: an incoming W3C traceparent joins the
// caller's trace, otherwise the local sampler decides; on the
// unsampled path the span is nil and every call below is free.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		label := name
		if name == "query" {
			label = "query_" + r.PathValue("verb")
			if _, ok := s.m.latency[label]; !ok {
				label = "query_other"
			}
		}
		parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		span := s.tracer.Start(s.m.spanName[label], parent)
		if span != nil {
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			r = r.WithContext(trace.ContextWithSpan(r.Context(), span))
		}
		s.m.inFlight.Add(1)
		defer s.m.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		span.SetInt("status", int64(sw.code))
		span.End()
		s.m.latency[label].ObserveDurationExemplar(elapsed, span.TraceIDString())
		class := sw.code / 100
		if class < 1 || class > 5 {
			class = 5
		}
		s.m.requests[label+"|"+statusClasses[class-1]].Inc()
	}
}

// handleMetrics serves the Prometheus exposition; 404 when disabled
// (-metrics=false) so a probe can tell "off" from "empty".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.metricsOn.Load() {
		http.NotFound(w, r)
		return
	}
	s.reg.Handler().ServeHTTP(w, r)
}
