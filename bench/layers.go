package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	streamagg "repro"
	"repro/federation"
	"repro/internal/cms"
	"repro/internal/hist"
	"repro/internal/mg"
	"repro/metrics"
	"repro/persist"
	"repro/server"
	"repro/trace"
)

// The traced pass times calls from bench code into each layer's public
// functions, one span per call, with tracing inside the program left off.
// It has two parts: a replay of the workload's own first requests through
// the layers in turn (the trace file and the cost ledger), and probes of
// each layer on fixed seed-derived inputs (the per-layer metrics, defined
// the same on every workload).

const (
	replayRequests = 2000
	replayBudget   = 4 * time.Second // per stage, so slow requests (merges) stay bounded
)

// replayReq is one generated request of a workload.
type replayReq struct {
	kind int
	keys []uint64 // ingest: the keys; estimate: keys[0]
	raw  []byte   // rendered HTTP request; nil on the library path
	// arm, when set, must run before each use of raw: a merge shares its
	// edge's rendered request and stamps its own Seq into it.
	arm func()
}

func (r replayReq) prepare() {
	if r.arm != nil {
		r.arm()
	}
}

// sinkWriter is an http.ResponseWriter that keeps nothing.
type sinkWriter struct {
	h      http.Header
	status int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *sinkWriter) WriteHeader(status int)      { w.status = status }

// querySink keeps the compiler from dropping a timed query whose answer
// nothing needs.
var querySink int64

// noopSink is a BatchProcessor that does nothing: behind an Ingestor it
// leaves the queue and the hand-off as the only cost.
type noopSink struct{}

func (noopSink) ProcessBatch([]uint64) error { return nil }

type prober struct {
	e       *env
	m       map[string]float64
	pre     []uint64 // the preload keys
	zipfK   []uint64 // 2^20 zipf keys
	distK   []uint64 // 2^20 distinct keys
	spans   []span   // everything recorded, for the trace file
	scratch string   // data directory for the persist probes
}

func (p *prober) keep(prefix string, rec *recorder) {
	for _, s := range rec.spans {
		s.Name = prefix + s.Name
		p.spans = append(p.spans, s)
	}
}

// loadedPipeline is the demo trio holding the preload.
func (p *prober) loadedPipeline() (*streamagg.Pipeline, error) {
	pipe, err := newDemoPipeline()
	if err != nil {
		return nil, err
	}
	return pipe, processAll(pipe, p.pre)
}

// serve pushes one rendered request through a handler in-process.
func serve(h http.Handler, raw []byte) (int, error) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return 0, err
	}
	w := &sinkWriter{h: http.Header{}, status: 200}
	h.ServeHTTP(w, req)
	return w.status, nil
}

// cpuOf runs f and returns the process CPU time it used, background
// goroutines (flush worker, GC) included.
func cpuOf(f func() error) (time.Duration, error) {
	before := selfCPU()
	err := f()
	return selfCPU() - before, err
}

// replayOut is what one replay measured, per ingested item.
type replayOut struct {
	items     int
	stats     map[string]*spanStats
	cpu       map[string]time.Duration // process CPU per stage
	traced    time.Duration            // wall time of the handler stage, spans on (median of 3)
	untraced  time.Duration            // the same stage, spans off
	haveHTTP  bool
	coalesced int
}

// replay pushes reqs through the layers in turn. Each stage is its own
// loop over all requests, so a stage's process CPU can be read around it;
// spans of request i share trace i across stages, and a span's parent is
// the span one layer up that contains the same work.
//
// Ingest requests go to a server over an empty pipeline, so the handler
// stage costs read, decode, validate, enqueue and respond and nothing
// waits for sketch updates; queries and merges go to a server holding the
// preload. coalesce is the batch size the pipeline stage regroups keys to,
// as the Ingestor would.
func (p *prober) replay(reqs []replayReq, durable bool, coalesce int, overhead bool) (*replayOut, *recorder, error) {
	rec := newRecorder()
	out := &replayOut{cpu: map[string]time.Duration{}, coalesced: coalesce}
	for _, r := range reqs {
		if r.kind == opIngest {
			out.items += len(r.keys)
		}
		out.haveHTTP = out.haveHTTP || r.raw != nil
	}

	// Each HTTP stage gets its own pair of servers: a full-mode merge lands
	// once per Seq, and the second stage must not find the first's state.
	type pair struct{ ingest, query *server.Server }
	var pairs []pair
	defer func() {
		for _, sp := range pairs {
			_ = sp.ingest.Ingestor().Close()
			_ = sp.query.Ingestor().Close()
		}
	}()
	newPair := func() (pair, error) {
		var opts []streamagg.Option
		if durable {
			dir, err := p.e.dataDir("replay")
			if err != nil {
				return pair{}, err
			}
			opts = append(opts, streamagg.WithDataDir(dir), streamagg.WithFsync(persist.FsyncInterval))
		}
		ingest, err := server.New(streamagg.NewPipeline(), opts...)
		if err != nil {
			return pair{}, err
		}
		loaded, err := p.loadedPipeline()
		if err != nil {
			return pair{}, err
		}
		query, err := server.New(loaded)
		if err != nil {
			return pair{}, err
		}
		pairs = append(pairs, pair{ingest, query})
		return pair{ingest, query}, nil
	}

	roundtrip := make([]int, len(reqs))
	handler := make([]int, len(reqs))
	if out.haveHTTP {
		// Stage: one keep-alive loopback connection, request by request.
		looped, err := newPair()
		if err != nil {
			return nil, nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("POST /v1/ingest", looped.ingest.Handler())
		mux.Handle("/", looped.query.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		hs := &http.Server{Handler: mux}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		cn, err := dial(ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		defer cn.close()
		deadline := time.Now().Add(replayBudget)
		out.cpu["http.roundtrip"], err = cpuOf(func() error {
			for i, r := range reqs {
				if time.Now().After(deadline) {
					reqs = reqs[:i]
					break
				}
				var status int
				var derr error
				r.prepare()
				roundtrip[i] = rec.call("http.roundtrip", i, 0, len(r.keys)*btoi(r.kind == opIngest), func() {
					status, _, derr = cn.do(r.raw, false)
				})
				if derr != nil || !ok2xx(status) {
					return fmt.Errorf("bench: replaying %s over loopback: status %d: %v", opNames[r.kind], status, derr)
				}
			}
			return looped.ingest.Ingestor().Flush()
		})
		if err != nil {
			return nil, nil, err
		}

		// Stage: the same requests straight into the handler.
		direct, err := newPair()
		if err != nil {
			return nil, nil, err
		}
		handlerFor := func(r replayReq) http.Handler {
			if r.kind == opIngest {
				return direct.ingest.Handler()
			}
			return direct.query.Handler()
		}
		handlerStage := func() error {
			for i, r := range reqs {
				var status int
				var serr error
				r.prepare()
				handler[i] = rec.call("server.handler", i, roundtrip[i], len(r.keys)*btoi(r.kind == opIngest), func() {
					status, serr = serve(handlerFor(r), r.raw)
				})
				if serr != nil || !ok2xx(status) {
					return fmt.Errorf("bench: replaying %s into the handler: status %d: %v", opNames[r.kind], status, serr)
				}
			}
			return direct.ingest.Ingestor().Flush()
		}
		if out.cpu["server.handler"], err = cpuOf(handlerStage); err != nil {
			return nil, nil, err
		}
		// What recording spans costs: the same stage with the recorder off
		// and on, alternating.
		if overhead {
			var on, off []time.Duration
			spans, recorded := len(rec.spans), slices.Clone(handler)
			for round := 0; round < 3; round++ {
				for _, recording := range []bool{false, true} {
					rec.off = !recording
					begin := time.Now()
					err = handlerStage()
					if recording {
						on = append(on, time.Since(begin))
					} else {
						off = append(off, time.Since(begin))
					}
					rec.off = false
					if err != nil {
						return nil, nil, err
					}
				}
			}
			// The extra passes are not part of the trace: later stages name
			// the recorded pass's spans as their parents.
			rec.spans = rec.spans[:spans]
			copy(handler, recorded)
			out.traced, out.untraced = medianDuration(on), medianDuration(off)
		}
	}

	// Stage: enqueue only, into an Ingestor whose sink does nothing.
	idle, err := streamagg.NewIngestor(noopSink{})
	if err != nil {
		return nil, nil, err
	}
	out.cpu["ingestor.put"], err = cpuOf(func() error {
		for i, r := range reqs {
			if r.kind != opIngest {
				continue
			}
			var perr error
			rec.call("ingestor.put", i, handler[i], len(r.keys), func() { _, perr = idle.PutBatch(r.keys) })
			if perr != nil {
				return perr
			}
		}
		return idle.Flush()
	})
	if cerr := idle.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}

	// Stage: the sketch updates, regrouped to the batch size the Ingestor
	// hands the pipeline, then each member alone on the same batches.
	loaded, err := p.loadedPipeline()
	if err != nil {
		return nil, nil, err
	}
	twin, err := p.loadedPipeline()
	if err != nil {
		return nil, nil, err
	}
	var batches [][]uint64
	var firstReq []int
	var cur []uint64
	for i, r := range reqs {
		if r.kind != opIngest {
			continue
		}
		if len(cur) == 0 {
			firstReq = append(firstReq, i)
		}
		cur = append(cur, r.keys...)
		if len(cur) >= coalesce {
			batches, cur = append(batches, cur), nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	process := make([]int, len(batches))
	out.cpu["pipeline.process"], err = cpuOf(func() error {
		for b, keys := range batches {
			var perr error
			process[b] = rec.call("pipeline.process", firstReq[b], 0, len(keys), func() { perr = loaded.ProcessBatch(keys) })
			if perr != nil {
				return perr
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, name := range twin.Names() {
		agg, _ := twin.Get(name)
		for b, keys := range batches {
			var perr error
			rec.call("agg."+name, firstReq[b], process[b], len(keys), func() { perr = agg.ProcessBatch(keys) })
			if perr != nil {
				return nil, nil, perr
			}
		}
	}

	// Stage: what the query and merge handlers call underneath.
	root := federation.NewRoot(twin, nil)
	for i, r := range reqs {
		var qerr error
		switch r.kind {
		case opEstimate:
			rec.call("pipeline.estimate", i, handler[i], 0, func() { _, qerr = twin.Estimate("sketch", r.keys[0]) })
		case opHeavyHitters:
			rec.call("pipeline.heavyhitters", i, handler[i], 0, func() { _, qerr = twin.HeavyHitters("hot", hhPhi) })
		case opTopK:
			rec.call("pipeline.topk", i, handler[i], 0, func() { _, qerr = twin.TopK("hot", 10) })
		case opRangeCount:
			lo := r.keys[0] &^ 4095
			rec.call("pipeline.rangecount", i, handler[i], 0, func() { _, qerr = twin.RangeCount("dist", lo, lo+4095) })
		case opQuantile:
			rec.call("pipeline.quantile", i, handler[i], 0, func() { _, qerr = twin.Quantile("dist", 0.5) })
		case opMerge:
			r.prepare()
			_, body, _ := bytes.Cut(r.raw, []byte("\r\n\r\n"))
			var env *federation.Envelope
			rec.call("federation.decode", i, handler[i], 0, func() { env, qerr = federation.DecodeEnvelope(body) })
			if qerr == nil {
				rec.call("federation.apply", i, handler[i], 0, func() { qerr = root.Apply(env) })
			}
		}
		if qerr != nil {
			return nil, nil, fmt.Errorf("bench: replaying %s into the pipeline: %w", opNames[r.kind], qerr)
		}
	}
	out.stats = rec.stats()
	return out, rec, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ledgerRow is one line of the cost ledger, per ingested item.
type ledgerRow struct {
	name          string
	wallNs, cpuNs float64
}

// ledger reconciles the replay's stages with the untraced run's
// cpu_ns_per_item. Stage CPU nests: the loopback stage contains the
// handler, which contains the enqueue; the sketch updates run behind the
// queue and are added on. CPU is process CPU around a stage, so the
// transport row carries the loopback client's share too, which the
// end-to-end figure (server process only) does not.
func (o *replayOut) ledger(e2eCPU float64) ([]ledgerRow, float64) {
	if o.items == 0 {
		return nil, 0
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(o.items) }
	self := func(name string) float64 {
		if s := o.stats[name]; s != nil {
			return per(s.self)
		}
		return 0
	}
	total := func(name string) float64 {
		if s := o.stats[name]; s != nil {
			return per(s.total)
		}
		return 0
	}
	var rows []ledgerRow
	attributed := per(o.cpu["pipeline.process"])
	if o.haveHTTP {
		rows = append(rows,
			ledgerRow{"transport (round trip - handler)", self("http.roundtrip"), per(o.cpu["http.roundtrip"] - o.cpu["server.handler"])},
			ledgerRow{"handler self (handler - put)", self("server.handler"), per(o.cpu["server.handler"] - o.cpu["ingestor.put"])})
		attributed += per(o.cpu["http.roundtrip"])
	} else {
		attributed += per(o.cpu["ingestor.put"])
	}
	rows = append(rows,
		ledgerRow{"put + drain (no-op sink)", total("ingestor.put"), per(o.cpu["ingestor.put"])},
		ledgerRow{fmt.Sprintf("pipeline (batches of %d)", o.coalesced), total("pipeline.process"), per(o.cpu["pipeline.process"])})
	for _, name := range []string{"agg.hot", "agg.sketch", "agg.dist"} {
		rows = append(rows, ledgerRow{"  member " + name, total(name), 0})
	}
	unattributed := 0.0
	if e2eCPU > 0 {
		unattributed = 1 - attributed/e2eCPU
	}
	return rows, unattributed
}

// tracedRun is -trace 1: a short untraced run of the workload for its
// counts and the CPU figure the ledger reconciles against, then the replay
// and the probes.
func tracedRun(e *env, wl *workload) (map[string]float64, int64, int64, error) {
	short := *e
	short.window = max(e.window/4, 3*time.Second)
	res, err := wl.run(&short)
	if err != nil {
		return nil, 0, 0, err
	}
	p := &prober{e: e, m: res.layer,
		pre:   e.zipf.keys(streamSeed(e.seed, "preload"), preloadKeys),
		zipfK: e.zipf.keys(streamSeed(e.seed, "probe"), 1<<20),
		distK: distinctKeys(1<<20, 1<<20),
	}
	if p.scratch, err = e.dataDir("probe"); err != nil {
		return nil, 0, 0, err
	}

	coalesce := int(res.layer["ingestor.mean_batch_items"])
	if coalesce <= 0 {
		coalesce = streamagg.DefaultBatchSize
	}
	reqs, err := replayRequestsOf(e, wl.name, res.layer["client.ingest_samples"], res.layer["client.query_samples"])
	if err != nil {
		return nil, 0, 0, err
	}
	out, rec, err := p.replay(reqs, wl.name == "mixed-durable", coalesce, false)
	if err != nil {
		return nil, 0, 0, err
	}
	p.keep("", rec)
	rows, unattributed := out.ledger(res.e2e["cpu_ns_per_item"])
	p.m["ledger.unattributed_share"] = unattributed

	for _, probe := range []func() error{
		p.probeServer, p.probeIngestor, p.probePipeline, p.probeAggregates, p.probeKernels,
		p.probeParallel, p.probePersist, p.probeCheckpoint, p.probeFederation, p.probeObservability,
	} {
		if err := probe(); err != nil {
			return nil, 0, 0, err
		}
	}

	path := filepath.Join(e.lay.out, "trace-"+wl.name+".json")
	data, err := json.Marshal(p.spans)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("%s: wrote %d spans to %s\n", wl.name, len(p.spans), path)
	if len(rows) > 0 {
		fmt.Printf("%s: cost ledger, ns per ingested item (%d items replayed; untraced cpu_ns_per_item = %.1f)\n",
			wl.name, out.items, res.e2e["cpu_ns_per_item"])
		fmt.Printf("  %-40s %12s %12s\n", "stage", "wall", "cpu")
		for _, r := range rows {
			cpu := "-" // members run inside the pipeline stage; CPU is read around stages only
			if r.cpuNs != 0 {
				cpu = fmt.Sprintf("%.1f", r.cpuNs)
			}
			fmt.Printf("  %-40s %12.1f %12s\n", r.name, r.wallNs, cpu)
		}
		fmt.Printf("  %-40s %12s %12.3f\n", "ledger.unattributed_share", "", unattributed)
	}
	return p.m, res.attempted, res.failed, nil
}

// replayRequestsOf regenerates the first requests of a workload from the
// seed, exactly as its run does. The fan-in's two connections run
// independently, so their streams are interleaved in the proportion the
// untraced run just measured: merges merges to every queries queries.
func replayRequestsOf(e *env, name string, merges, queries float64) ([]replayReq, error) {
	var reqs []replayReq
	switch name {
	case "ingest-http":
		ring := e.zipf.keys(streamSeed(e.seed, "ingest-http"), httpRing*httpBatch)
		for b := 0; b < replayRequests; b++ {
			keys := ring[b*httpBatch : (b+1)*httpBatch]
			reqs = append(reqs, replayReq{kind: opIngest, keys: keys, raw: ingestRequest(keys, false)})
		}
	case "ingest-core":
		ring := e.zipf.keys(streamSeed(e.seed, "ingest-core"), coreRing)
		for b := 0; b < coreRing/coreBatch; b++ {
			reqs = append(reqs, replayReq{kind: opIngest, keys: ring[b*coreBatch : (b+1)*coreBatch]})
		}
	case "mixed-durable":
		sched := newMixedSchedule(e, replayRequests)
		for _, op := range sched.ops {
			r := replayReq{kind: op.kind, raw: op.req, keys: []uint64{op.key}}
			if op.kind == opIngest {
				r.keys = sched.ring[op.body*mixedIngestKeys : (op.body+1)*mixedIngestKeys]
			}
			reqs = append(reqs, r)
		}
	case "federation-fanin":
		payloads, err := e.buildEdgePayloads()
		if err != nil {
			return nil, err
		}
		ring, err := newMergeRing(payloads)
		if err != nil {
			return nil, err
		}
		pushed := 0
		for i, q := range newFaninQueries(e, replayRequests) {
			for len(reqs) < replayRequests && float64(pushed)*queries <= float64(i)*merges {
				push := pushed
				reqs = append(reqs, replayReq{kind: opMerge, raw: ring.reqs[push%faninEdges], arm: func() { ring.push(push) }})
				pushed++
			}
			if len(reqs) == replayRequests {
				break
			}
			reqs = append(reqs, replayReq{kind: q.kind, raw: q.req, keys: []uint64{q.key}})
		}
	}
	return reqs, nil
}

// ------------------------------------------------------------------- probes

// loop records n calls of f as spans and returns their stats.
func loop(rec *recorder, name string, n, items int, f func(i int) error) (*spanStats, error) {
	var err error
	for i := 0; i < n && err == nil; i++ {
		rec.call(name, i, 0, items, func() { err = f(i) })
	}
	if err != nil {
		return nil, fmt.Errorf("bench: probe %s: %w", name, err)
	}
	return rec.stats()[name], nil
}

const (
	msPerNs = 1e-6
	usPerNs = 1e-3
)

func (p *prober) batch(keys []uint64, i, size int) []uint64 {
	n := len(keys) / size
	return keys[(i%n)*size : (i%n+1)*size]
}

func (p *prober) probeServer() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	for _, size := range []int{64, 512} {
		n := (1 << 19) / size
		var reqs []replayReq
		for i := 0; i < n; i++ {
			keys := p.batch(p.zipfK, i, size)
			reqs = append(reqs, replayReq{kind: opIngest, keys: keys, raw: ingestRequest(keys, false)})
		}
		out, r, err := p.replay(reqs, false, streamagg.DefaultBatchSize, size == 512)
		if err != nil {
			return err
		}
		p.keep(fmt.Sprintf("probe/b%d/", size), r)
		p.m[fmt.Sprintf("server.ingest_handler_ns_per_item.b%d", size)] = out.stats["server.handler"].nsPerItem()
		if size == 512 {
			p.m["server.transport_ns_per_item"] = out.stats["http.roundtrip"].selfNsPerItem()
			p.m["bench.trace_overhead_ratio"] = float64(out.traced) / float64(out.untraced)
		}
	}
	var scratch []uint64
	body := ingestBody(p.batch(p.zipfK, 0, 512), false)
	st, err := loop(rec, "json.unmarshal", 1000, 512, func(int) error { return json.Unmarshal(body, &scratch) })
	if err != nil {
		return err
	}
	p.m["server.decode_ref_ns_per_item"] = st.nsPerItem()

	pipe, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	srv, err := server.New(pipe)
	if err != nil {
		return err
	}
	defer srv.Ingestor().Close()
	for _, op := range queryOps {
		st, err := loop(rec, "server.query."+opNames[op], 300, 0, func(i int) error {
			status, err := serve(srv.Handler(), queryRequest(op, p.zipfK[i]))
			if err == nil && !ok2xx(status) {
				err = fmt.Errorf("status %d", status)
			}
			return err
		})
		if err != nil {
			return err
		}
		p.m["server.query_handler_us."+opNames[op]] = st.medianNs() * usPerNs
	}
	st, err = loop(rec, "server.metrics_scrape", 30, 0, func(int) error {
		_, err := serve(srv.Handler(), getRequest("/metrics"))
		return err
	})
	if err != nil {
		return err
	}
	p.m["server.metrics_scrape_ms"] = st.medianNs() * msPerNs
	return nil
}

func (p *prober) probeIngestor() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	for _, size := range []int{64, 512, 8192} {
		idle, err := streamagg.NewIngestor(noopSink{})
		if err != nil {
			return err
		}
		n := (1 << 21) / size
		name := fmt.Sprintf("ingestor.put.b%d", size)
		// The outer span covers every put and the final flush; what it adds
		// to its children is the queue's hand-off.
		outer := rec.open("ingestor.put_flush."+name, 0, 0, n*size)
		for i := 0; i < n && err == nil; i++ {
			keys := p.batch(p.zipfK, i, size)
			rec.call(name, i, outer, size, func() { _, err = idle.PutBatch(keys) })
		}
		if err == nil {
			err = idle.Flush()
		}
		rec.close(outer)
		if cerr := idle.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("bench: probe %s: %w", name, err)
		}
		stats := rec.stats()
		p.m[fmt.Sprintf("ingestor.put_ns_per_item.b%d", size)] = stats[name].nsPerItem()
		if size == 8192 {
			p.m["ingestor.drain_ns_per_item"] = stats["ingestor.put_flush."+name].selfNsPerItem()
		}
	}

	pipe, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	ing, err := streamagg.NewIngestor(pipe)
	if err != nil {
		return err
	}
	defer ing.Close()
	// Visibility: from PutBatch of one key to the first read that counts
	// it, with the default flush timer.
	st, err := loop(rec, "ingestor.visibility", 40, 1, func(i int) error {
		before := pipe.StreamLen()
		if _, err := ing.PutBatch(p.zipfK[i : i+1]); err != nil {
			return err
		}
		for pipe.StreamLen() == before {
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["ingestor.visibility_ms_p50"] = st.medianNs() * msPerNs

	// Checkpoint pause under producer load.
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; !stop.Load() && err == nil; i++ {
			_, err = ing.PutBatch(p.batch(p.zipfK, i, coreBatch))
		}
		done <- err
	}()
	st, err = loop(rec, "ingestor.checkpoint", 10, 0, func(int) error {
		_, err := ing.Checkpoint()
		return err
	})
	stop.Store(true)
	if perr := <-done; err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	p.m["ingestor.checkpoint_pause_ms"] = st.medianNs() * msPerNs
	return nil
}

func (p *prober) probePipeline() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	pipe, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	twin, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	const n = 48
	for _, in := range []struct {
		tag  string
		keys []uint64
	}{{"zipf", p.zipfK}, {"distinct", p.distK}} {
		st, err := loop(rec, "pipeline.process."+in.tag, n, coreBatch, func(i int) error {
			return pipe.ProcessBatch(p.batch(in.keys, i, coreBatch))
		})
		if err != nil {
			return err
		}
		p.m["pipeline.process_ns_per_item."+in.tag] = st.nsPerItem()
		if in.tag != "zipf" {
			continue
		}
		var members time.Duration
		for _, name := range twin.Names() {
			agg, _ := twin.Get(name)
			ms, err := loop(rec, "pipeline.member."+name, n, coreBatch, func(i int) error {
				return agg.ProcessBatch(p.batch(in.keys, i, coreBatch))
			})
			if err != nil {
				return err
			}
			members += ms.total
		}
		p.m["pipeline.fanout_ratio"] = float64(st.total) / float64(members)
	}

	st, err := loop(rec, "pipeline.estimate", 20000, 0, func(i int) error {
		_, err := pipe.Estimate("sketch", p.zipfK[i])
		return err
	})
	if err != nil {
		return err
	}
	p.m["pipeline.estimate_ns"] = float64(st.total) / float64(st.calls)
	for _, q := range []struct {
		name string
		call func(i int) error
	}{
		{"topk", func(int) error { _, err := pipe.TopK("hot", 10); return err }},
		{"heavyhitters", func(int) error { _, err := pipe.HeavyHitters("hot", hhPhi); return err }},
		{"rangecount", func(i int) error {
			lo := p.zipfK[i] &^ 4095
			_, err := pipe.RangeCount("dist", lo, lo+4095)
			return err
		}},
		{"quantile", func(int) error { _, err := pipe.Quantile("dist", 0.5); return err }},
	} {
		st, err := loop(rec, "pipeline."+q.name, 300, 0, q.call)
		if err != nil {
			return err
		}
		p.m["pipeline."+q.name+"_us"] = st.medianNs() * usPerNs
	}
	st, err = loop(rec, "pipeline.clone", 10, 0, func(int) error { _, err := pipe.Clone(); return err })
	if err != nil {
		return err
	}
	p.m["pipeline.clone_ms"] = st.medianNs() * msPerNs
	st, err = loop(rec, "pipeline.merge", 10, 0, func(int) error { return pipe.Merge(twin) })
	if err != nil {
		return err
	}
	p.m["pipeline.merge_ms"] = st.medianNs() * msPerNs
	return nil
}

func (p *prober) probeAggregates() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	const window = 1 << 20
	type probe struct {
		metric string
		kind   streamagg.Kind
		opts   []streamagg.Option
		keys   []uint64
		size   int
	}
	cm := []streamagg.Option{streamagg.WithEpsilon(cmEpsilon), streamagg.WithSeed(7)}
	probes := []probe{
		{"agg.freq-estimator.ns_per_item.zipf", streamagg.KindFreq, []streamagg.Option{streamagg.WithEpsilon(freqEpsilon)}, p.zipfK, coreBatch},
		{"agg.freq-estimator.ns_per_item.distinct", streamagg.KindFreq, []streamagg.Option{streamagg.WithEpsilon(freqEpsilon)}, p.distK, coreBatch},
		{"agg.count-min.ns_per_item.zipf", streamagg.KindCountMin, cm, p.zipfK, coreBatch},
		{"agg.count-min.ns_per_item.distinct", streamagg.KindCountMin, cm, p.distK, coreBatch},
		{"agg.count-min.ns_per_item.b256", streamagg.KindCountMin, cm, p.zipfK, 256},
		{"agg.count-min-range.ns_per_item", streamagg.KindCountMinRange, []streamagg.Option{streamagg.WithUniverseBits(20)}, p.zipfK, coreBatch},
		{"agg.count-sketch.ns_per_item", streamagg.KindCountSketch, []streamagg.Option{streamagg.WithEpsilon(1e-3), streamagg.WithSeed(7)}, p.zipfK, coreBatch},
		{"agg.basic-counter.ns_per_item", streamagg.KindBasicCounter, []streamagg.Option{streamagg.WithWindow(window)}, p.zipfK, coreBatch},
		{"agg.window-sum.ns_per_item", streamagg.KindWindowSum, []streamagg.Option{streamagg.WithWindow(window), streamagg.WithMaxValue(keyUniverse)}, p.zipfK, coreBatch},
		{"agg.sliding-freq-estimator.ns_per_item", streamagg.KindSlidingFreq, []streamagg.Option{streamagg.WithWindow(window)}, p.zipfK, coreBatch},
		{"agg.sharded4.count-min.ns_per_item", streamagg.KindCountMin, append([]streamagg.Option{streamagg.WithShards(4)}, cm...), p.zipfK, coreBatch},
	}
	for _, pr := range probes {
		agg, err := streamagg.New(pr.kind, pr.opts...)
		if err != nil {
			return fmt.Errorf("bench: probe %s: %w", pr.metric, err)
		}
		n := (1 << 18) / pr.size
		st, err := loop(rec, pr.metric, n, pr.size, func(i int) error {
			return agg.ProcessBatch(p.batch(pr.keys, i, pr.size))
		})
		if err != nil {
			return err
		}
		p.m[pr.metric] = st.nsPerItem()
	}
	return nil
}

func (p *prober) probeKernels() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	const n = 64
	var entries, items int
	for _, in := range []struct {
		tag  string
		keys []uint64
	}{{"zipf", p.zipfK}, {"distinct", p.distK}} {
		st, err := loop(rec, "hist.build."+in.tag, n, coreBatch, func(i int) error {
			h := hist.Build(p.batch(in.keys, i, coreBatch), int64(i+1))
			if in.tag == "zipf" {
				entries, items = entries+len(h), items+coreBatch
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.m["hist.build_ns_per_item."+in.tag] = st.nsPerItem()
	}
	p.m["hist.dedup_ratio"] = float64(entries) / float64(items)

	hists := make([][]hist.Entry, n)
	var total int
	for i := range hists {
		hists[i] = hist.Build(p.batch(p.zipfK, i, coreBatch), int64(i+1))
		total += len(hists[i])
	}
	sk := cms.New(cmEpsilon, 0.01, 7)
	st, err := loop(rec, "cms.add_histogram", n, 0, func(i int) error { sk.AddHistogram(hists[i]); return nil })
	if err != nil {
		return err
	}
	p.m["cms.add_hist_ns_per_entry"] = float64(st.total) / float64(total)
	st, err = loop(rec, "cms.query", 20000, 0, func(i int) error { querySink += sk.Query(p.zipfK[i]); return nil })
	if err != nil {
		return err
	}
	p.m["cms.query_ns"] = float64(st.total) / float64(st.calls)
	summary := mg.New(freqEpsilon)
	st, err = loop(rec, "mg.augment", n, 0, func(i int) error { summary.AugmentHist(hists[i]); return nil })
	if err != nil {
		return err
	}
	p.m["mg.augment_ns_per_entry"] = float64(st.total) / float64(total)
	return nil
}

func (p *prober) probeParallel() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	times := map[int]float64{}
	for _, workers := range []int{1, p.e.nproc} {
		pipe, err := newDemoPipeline()
		if err != nil {
			return err
		}
		prev := streamagg.SetParallelism(workers)
		st, err := loop(rec, fmt.Sprintf("parallel.process.p%d", workers), 2, len(p.zipfK), func(int) error {
			return pipe.ProcessBatch(p.zipfK)
		})
		streamagg.SetParallelism(prev)
		if err != nil {
			return err
		}
		times[workers] = st.medianNs()
	}
	p.m["parallel.p1_items_per_s"] = float64(len(p.zipfK)) / (times[1] / 1e9)
	p.m["parallel.speedup"] = times[1] / times[p.e.nproc]
	return nil
}

func (p *prober) probePersist() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	const n = 64
	var replayDir string
	for _, policy := range []persist.Fsync{persist.FsyncNever, persist.FsyncInterval, persist.FsyncAlways} {
		dir := filepath.Join(p.scratch, policy.String())
		st, err := persist.Open(dir, persist.Options{Fsync: policy})
		if err != nil {
			return err
		}
		ss, err := loop(rec, "persist.append."+policy.String(), n, coreBatch, func(i int) error {
			_, err := st.Append(p.batch(p.zipfK, i, coreBatch))
			return err
		})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		p.m["persist.append_ns_per_item."+policy.String()] = ss.nsPerItem()
		if policy == persist.FsyncNever {
			replayDir = dir
		}
	}

	// Open and replay the 64-record log, as recovery does.
	var st *persist.Store
	opens, err := loop(rec, "persist.open", 5, 0, func(int) error {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		var err error
		st, err = persist.Open(replayDir, persist.Options{Fsync: persist.FsyncNever})
		return err
	})
	if err != nil {
		return err
	}
	defer st.Close()
	p.m["persist.open_ms"] = opens.medianNs() * msPerNs
	var replayed int
	rs, err := loop(rec, "persist.replay", 1, 0, func(int) error {
		return st.Replay(func(items []uint64) error { replayed += len(items); return nil })
	})
	if err != nil {
		return err
	}
	if replayed != n*coreBatch {
		return fmt.Errorf("bench: probe persist.replay: replayed %d items, want %d", replayed, n*coreBatch)
	}
	p.m["persist.replay_ns_per_item"] = float64(rs.total) / float64(replayed)

	pipe, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	payload, err := pipe.MarshalBinary()
	if err != nil {
		return err
	}
	ws, err := loop(rec, "persist.write_snapshot", 5, 0, func(int) error {
		return st.WriteSnapshot(payload, st.Position())
	})
	if err != nil {
		return err
	}
	p.m["persist.snapshot_write_ms"] = ws.medianNs() * msPerNs

	// The device under the data directory, for reading the numbers above:
	// one 64 KiB write and an fsync.
	f, err := os.Create(filepath.Join(p.scratch, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 64<<10)
	fs, err := loop(rec, "persist.fsync", 20, 0, func(int) error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	p.m["persist.fsync_ms_p50"] = fs.medianNs() * msPerNs
	return nil
}

func (p *prober) probeCheckpoint() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	pipe, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	var data []byte
	st, err := loop(rec, "checkpoint.marshal", 10, 0, func(int) (err error) {
		data, err = pipe.MarshalBinary()
		return err
	})
	if err != nil {
		return err
	}
	p.m["checkpoint.marshal_ms"] = st.medianNs() * msPerNs
	p.m["checkpoint.bytes"] = float64(len(data))
	st, err = loop(rec, "checkpoint.unmarshal", 10, 0, func(int) error {
		_, err := streamagg.UnmarshalPipeline(data)
		return err
	})
	if err != nil {
		return err
	}
	p.m["checkpoint.unmarshal_ms"] = st.medianNs() * msPerNs
	return nil
}

func (p *prober) probeFederation() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	base, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	edge, err := p.loadedPipeline()
	if err != nil {
		return err
	}
	payload, err := edge.MarshalBinary()
	if err != nil {
		return err
	}
	envelope := func(node string, seq int, mode federation.Mode) *federation.Envelope {
		return &federation.Envelope{Node: node, Epoch: 1, Seq: uint64(seq + 1), Mode: mode, Payload: payload}
	}
	var wire []byte
	st, err := loop(rec, "federation.encode", 20, 0, func(i int) (err error) {
		wire, err = federation.EncodeEnvelope(envelope("edge-0", i, federation.ModeFull))
		return err
	})
	if err != nil {
		return err
	}
	p.m["federation.envelope_encode_ms"] = st.medianNs() * msPerNs
	st, err = loop(rec, "federation.decode", 20, 0, func(int) error {
		_, err := federation.DecodeEnvelope(wire)
		return err
	})
	if err != nil {
		return err
	}
	p.m["federation.envelope_decode_ms"] = st.medianNs() * msPerNs

	root := federation.NewRoot(base, nil)
	st, err = loop(rec, "federation.apply.full", 2*faninEdges, 0, func(i int) error {
		return root.Apply(envelope(fmt.Sprintf("edge-%d", i%faninEdges), i, federation.ModeFull))
	})
	if err != nil {
		return err
	}
	// The first round grows the view from 1 to 8 contributions; report the
	// second, at K = 8 throughout.
	p.m["federation.apply_ms.full"] = median(st.durs[faninEdges:]) * msPerNs
	// A local batch invalidates the cached view; the next read rebuilds it
	// from the base and all eight contributions.
	st, err = loop(rec, "federation.view_rebuild", 8, 0, func(i int) error {
		if err := base.ProcessBatch(p.batch(p.zipfK, i, 64)); err != nil {
			return err
		}
		root.View()
		return nil
	})
	if err != nil {
		return err
	}
	p.m["federation.view_rebuild_ms"] = st.medianNs() * msPerNs
	deltaRoot := federation.NewRoot(edge, nil)
	st, err = loop(rec, "federation.apply.delta", 8, 0, func(i int) error {
		return deltaRoot.Apply(envelope("edge-d", i, federation.ModeDelta))
	})
	if err != nil {
		return err
	}
	p.m["federation.apply_ms.delta"] = st.medianNs() * msPerNs
	return nil
}

func (p *prober) probeObservability() error {
	rec := newRecorder()
	defer p.keep("probe/", rec)
	// One span per million calls: a span per call would cost more than the call.
	const n = 1 << 20
	reg := metrics.NewRegistry()
	counter := reg.Counter("bench_probe_total", "probe")
	histogram := reg.Histogram("bench_probe_seconds", "probe", metrics.UnitSeconds)
	off := trace.New(trace.Config{SampleRate: 0})
	on := trace.New(trace.Config{SampleRate: 1})
	for _, pr := range []struct {
		metric string
		calls  int
		call   func(i int)
	}{
		{"metrics.counter_add_ns", n, func(int) { counter.Add(1) }},
		{"metrics.histogram_observe_ns", n, func(i int) { histogram.Observe(uint64(i)) }},
		{"trace.unsampled_span_ns", n, func(int) { off.Start("probe", trace.SpanContext{}).End() }},
		{"trace.sampled_span_ns", n / 8, func(int) { on.Start("probe", trace.SpanContext{}).End() }},
	} {
		st, err := loop(rec, pr.metric, 1, pr.calls, func(int) error {
			for i := 0; i < pr.calls; i++ {
				pr.call(i)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.m[pr.metric] = st.nsPerItem()
	}
	return nil
}
