package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/federation"
)

// runResult is what one workload run measured.
type runResult struct {
	e2e       map[string]float64 // end-to-end metrics, keyed as in BENCHMARK.json
	layer     map[string]float64 // counts and client-side readings of this run
	attempted int64
	failed    int64
}

func newResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// workload is one named traffic shape. Every workload reports every
// end-to-end metric; README.md says what each one means on each workload.
type workload struct {
	name string
	run  func(e *env) (*runResult, error)
}

var workloads = []workload{
	{"ingest-http", runIngestHTTP},
	{"ingest-core", runIngestCore},
	{"mixed-durable", runMixedDurable},
	{"federation-fanin", runFederationFanin},
}

// ingestMetrics fills the throughput, CPU and latency metrics every
// workload shares, from its ingest operations (merges, on the fan-in). lat
// holds the latency samples: the same operations placed by completion
// time in a closed loop, by intended time in an open one.
func ingestMetrics(r *runResult, log *opLog, cpu time.Duration, ingestKind int, lat []sample) {
	done := log.samples(isKind(ingestKind), false)
	_, items := inWindow(done, log.window)
	r.e2e["ingest_items_per_s"] = sliceRate(done, log.window, throughputSlice)
	if items > 0 {
		r.e2e["cpu_ns_per_item"] = float64(cpu) / float64(items)
	}
	r.e2e["ingest_p50_ms"] = sliceQuantileMs(lat, log.window, latencySlice, 0.50)
	n, _ := inWindow(lat, log.window)
	r.layer["client.ingest_samples"] = float64(n)
	r.layer["client.ingest_p95_ms"] = sliceQuantileMs(lat, log.window, latencySlice, 0.95)
	r.layer["client.ingest_p99_ms"] = sliceQuantileMs(lat, log.window, latencySlice, 0.99)
	r.layer["client.stall_max_ms"] = float64(log.stallMax()) / float64(time.Millisecond)
}

// queryMetrics pools every query verb into one latency figure.
func queryMetrics(r *runResult, log *opLog) {
	q := log.samples(isKind(queryOps...), true)
	n, _ := inWindow(q, log.window)
	r.layer["client.query_samples"] = float64(n)
	r.layer["client.query_p95_ms"] = sliceQuantileMs(q, log.window, latencySlice, 0.95)
}

// connPool dials one connection per worker.
func connPool(addr string, n int) ([]*conn, func(), error) {
	conns := make([]*conn, 0, n)
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("bench: dialing %s: %w", addr, err)
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// verifyServer checks the server's answers against the oracle.
func verifyServer(srv *child, o *oracle, viewLen bool, maybeItems int64) error {
	cn, err := dial(srv.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	obs, err := observeHTTP(cn, o.top(oracleTop), viewLen)
	if err != nil {
		return fmt.Errorf("bench: reading answers: %w", err)
	}
	if err := o.check(obs, maybeItems); err != nil {
		return fmt.Errorf("bench: INCORRECT: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------- ingest-http

func runIngestHTTP(e *env) (*runResult, error) {
	pre := e.newPreload()
	ring := e.zipf.keys(streamSeed(e.seed, "ingest-http"), httpRing*httpBatch)
	reqs := make([][]byte, httpRing)
	for b := range reqs {
		reqs[b] = ingestRequest(ring[b*httpBatch:(b+1)*httpBatch], false)
	}

	srv, args, setup, err := e.setupServer(pre, nil, nil)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	conns, closeConns, err := connPool(srv.addr, e.nproc)
	if err != nil {
		return nil, err
	}
	defer closeConns()

	start := time.Now()
	stop := make(chan struct{})
	var parts [][]opRecord
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		parts = closedLoop(start, e.nproc, stop, func(w, i int) (int, int, int) {
			status, _, _ := conns[w].do(reqs[i%httpRing], false)
			return opIngest, status, httpBatch
		})
	}()
	win, err := observeWindow(srv, false, start.Add(warmup), e.window)
	close(stop)
	<-loopDone
	if err != nil {
		return nil, err
	}
	log := newOpLog(parts, warmup, e.window)

	// Exact oracle: the preload plus every acknowledged body, warm-up included.
	o := newOracle()
	o.add(pre.keys, 1)
	acks := make([]int64, httpRing)
	var maybe int64
	for w, p := range parts {
		for j, r := range p {
			switch {
			case ok2xx(r.status):
				acks[(w+j*e.nproc)%httpRing]++
			case r.status == 0:
				maybe += httpBatch
			}
		}
	}
	for b, n := range acks {
		o.add(ring[b*httpBatch:(b+1)*httpBatch], n)
	}
	if err := verifyServer(srv, o, false, maybe); err != nil {
		return nil, err
	}

	r := newResult()
	r.e2e["setup_s"] = setup.Seconds()
	r.e2e["rss_mb"] = win.rssMiB
	ingestMetrics(r, log, win.serverCPU, opIngest, log.samples(isKind(opIngest), false))
	srv, recov, err := e.restartRounds(srv, args, restartRoundsMemory)
	if err != nil {
		return nil, err
	}
	r.e2e["recovery_s"] = recov.Seconds()
	t := log.tally()
	r.attempted, r.failed = t.requests, t.failed()
	win.layerCounts(r.layer)
	tallyCounts(t, r.layer)
	return r, nil
}

// -------------------------------------------------------------- mixed-durable

// mixedOp is one pre-drawn operation of the open-loop schedule.
type mixedOp struct {
	kind int
	req  []byte
	body int    // ring index of an ingest body, for the oracle
	key  uint64 // the key a query was rendered with
}

// mixedSchedule is the seed's open-loop schedule for mixed-durable.
type mixedSchedule struct {
	ring []uint64 // keys of the ingest bodies, mixedIngestKeys each
	ops  []mixedOp
}

func newMixedSchedule(e *env, total int) mixedSchedule {
	r := streamSeed(e.seed, "mixed-durable")
	s := mixedSchedule{ring: e.zipf.keys(r, mixedRing*mixedIngestKeys), ops: make([]mixedOp, total)}
	bodies := make([][]byte, mixedRing)
	for b := range bodies {
		bodies[b] = ingestRequest(s.ring[b*mixedIngestKeys:(b+1)*mixedIngestKeys], false)
	}
	var totalWeight int
	for _, mw := range mixedWeights {
		totalWeight += mw.weight
	}
	nextBody := 0
	for i := range s.ops {
		pick := r.intn(totalWeight)
		kind := opIngest
		for _, mw := range mixedWeights {
			if pick < mw.weight {
				kind = mw.op
				break
			}
			pick -= mw.weight
		}
		if kind == opIngest {
			s.ops[i] = mixedOp{kind: kind, req: bodies[nextBody%mixedRing], body: nextBody % mixedRing}
			nextBody++
		} else {
			key := e.zipf.draw(r)
			s.ops[i] = mixedOp{kind: kind, req: queryRequest(kind, key), key: key}
		}
	}
	return s
}

func runMixedDurable(e *env) (*runResult, error) {
	pre := e.newPreload()
	total := int(float64(mixedRate) * (warmup + e.window).Seconds())
	sched := newMixedSchedule(e, total)
	ring, ops := sched.ring, sched.ops
	recKeys := e.zipf.keys(streamSeed(e.seed, "mixed-durable/recovery"), recoveryBodies*recoveryBatch)
	recReqs := make([][]byte, recoveryBodies)
	for b := range recReqs {
		recReqs[b] = ingestRequest(recKeys[b*recoveryBatch:(b+1)*recoveryBatch], true)
	}

	durableArgs := func() ([]string, error) {
		dir, err := e.dataDir("mixed")
		if err != nil {
			return nil, err
		}
		return []string{"-data-dir", dir, "-fsync", "interval"}, nil
	}

	// Phase A: open loop at a fixed rate.
	srv, _, setup, err := e.setupServer(pre, durableArgs, nil)
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	conns, closeConns, err := connPool(srv.addr, e.nproc)
	if err != nil {
		return nil, err
	}
	defer closeConns()

	start := time.Now().Add(10 * time.Millisecond)
	var parts [][]opRecord
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		parts = openLoop(start, mixedRate, total, e.nproc, func(w, i int) (int, int, int) {
			op := ops[i]
			status, _, _ := conns[w].do(op.req, false)
			items := 0
			if op.kind == opIngest {
				items = mixedIngestKeys
			}
			return op.kind, status, items
		})
	}()
	win, err := observeWindow(srv, true, start.Add(warmup), e.window)
	<-loopDone
	if err != nil {
		return nil, err
	}
	log := newOpLog(parts, warmup, e.window)

	o := newOracle()
	o.add(pre.keys, 1)
	var maybe int64
	scheduled, completed := 0, 0
	for w, p := range parts {
		for j, rec := range p {
			op := ops[w+j*e.nproc]
			if op.kind == opIngest {
				switch {
				case ok2xx(rec.status):
					o.add(ring[op.body*mixedIngestKeys:(op.body+1)*mixedIngestKeys], 1)
				case rec.status == 0:
					maybe += mixedIngestKeys
				}
			}
			if at := rec.intended - warmup; at >= 0 && at < e.window {
				scheduled++
				if ok2xx(rec.status) && rec.done-warmup <= e.window {
					completed++
				}
			}
		}
	}
	if err := verifyServer(srv, o, false, maybe); err != nil {
		return nil, err
	}
	srv.stop()

	res := newResult()
	res.e2e["setup_s"] = setup.Seconds()
	res.e2e["rss_mb"] = win.rssMiB
	ingestMetrics(res, log, win.serverCPU, opIngest, log.samples(isKind(opIngest), true))
	res.layer["client.gen_late_p99_ms"] = log.lateP99Ms()
	queryMetrics(res, log)
	res.layer["client.achieved_ratio"] = float64(completed) / float64(max(scheduled, 1))
	t := log.tally()
	win.layerCounts(res.layer)

	// Phase B: a fixed number of WAL records, SIGKILL, restart, compare.
	recov, recTally, err := e.recoveryPhase(recKeys, recReqs)
	if err != nil {
		return nil, err
	}
	res.e2e["recovery_s"] = recov.Seconds()
	t.add(recTally)
	res.attempted, res.failed = t.requests, t.failed()
	tallyCounts(t, res.layer)
	return res, nil
}

// recoveryPhase writes exactly recoveryRecords sync'd 8192-key records
// into a fresh data directory over one connection, records what the
// server answers, then times kill → restart → /readyz and requires the
// same answers afterwards.
func (e *env) recoveryPhase(keys []uint64, reqs [][]byte) (time.Duration, tally, error) {
	var t tally
	dir, err := e.dataDir("recovery")
	if err != nil {
		return 0, t, err
	}
	args := []string{"-data-dir", dir, "-fsync", "interval"}
	srv, err := e.spawn(args...)
	if err != nil {
		return 0, t, err
	}
	defer func() { srv.kill() }()
	cn, err := dial(srv.addr)
	if err != nil {
		return 0, t, err
	}
	o := newOracle()
	for i := 0; i < recoveryRecords; i++ {
		b := i % recoveryBodies
		status, _, err := cn.do(reqs[b], false)
		t.note(status)
		if err != nil || !ok2xx(status) {
			cn.close()
			return 0, t, fmt.Errorf("bench: recovery ingest %d: status %d: %v", i, status, err)
		}
		o.add(keys[b*recoveryBatch:(b+1)*recoveryBatch], 1)
	}
	probe := o.top(oracleTop)
	before, err := observeHTTP(cn, probe, false)
	cn.close()
	if err != nil {
		return 0, t, err
	}
	if err := o.check(before, 0); err != nil {
		return 0, t, fmt.Errorf("bench: INCORRECT before the crash: %w", err)
	}
	srv, recov, err := e.restartRounds(srv, args, restartRoundsDurable)
	if err != nil {
		return 0, t, err
	}
	cn, err = dial(srv.addr)
	if err != nil {
		return 0, t, err
	}
	defer cn.close()
	after, err := observeHTTP(cn, probe, false)
	if err != nil {
		return 0, t, err
	}
	if after.streamLen != before.streamLen {
		return 0, t, fmt.Errorf("bench: INCORRECT: stream_len %d after recovery, %d before the crash",
			after.streamLen, before.streamLen)
	}
	for _, k := range probe {
		if after.countMin[k] != before.countMin[k] || after.freq[k] != before.freq[k] {
			return 0, t, fmt.Errorf("bench: INCORRECT: key %d answers (%d, %d) after recovery, (%d, %d) before the crash",
				k, after.countMin[k], after.freq[k], before.countMin[k], before.freq[k])
		}
	}
	return recov, t, nil
}

// ----------------------------------------------------------- federation-fanin

// edgeStream regenerates edge k's keys from the seed.
func (e *env) edgeStream(k int) []uint64 {
	return e.zipf.keys(streamSeed(e.seed, fmt.Sprintf("federation-fanin/edge-%d", k)), faninEdgeKeys)
}

// buildEdgePayloads builds the edges' pipelines in-process, as edge nodes
// would, and checkpoints each once.
func (e *env) buildEdgePayloads() ([][]byte, error) {
	payloads := make([][]byte, faninEdges)
	for k := range payloads {
		pipe, err := newDemoPipeline()
		if err != nil {
			return nil, err
		}
		if err := processAll(pipe, e.edgeStream(k)); err != nil {
			return nil, err
		}
		if payloads[k], err = pipe.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

// newFaninQueries draws the fan-in's query stream: the five verbs with
// equal weights.
func newFaninQueries(e *env, total int) []mixedOp {
	r := streamSeed(e.seed, "federation-fanin/queries")
	queries := make([]mixedOp, total)
	for i := range queries {
		kind := queryOps[r.intn(len(queryOps))]
		key := e.zipf.draw(r)
		queries[i] = mixedOp{kind: kind, req: queryRequest(kind, key), key: key}
	}
	return queries
}

// mergeSeqBase is where the fan-in's Seqs start, so that every Seq of a run
// encodes to the same width.
const mergeSeqBase = 1 << 32

// mergeRing is the fan-in's /v1/merge requests, rendered once per edge
// before the timed window. An edge's pushes differ only in Seq, so issuing
// one stores four bytes into the rendered request instead of encoding and
// copying the envelope again. Where Seq's low 32 bits sit is found by
// rendering the envelope with two Seqs and comparing the bytes.
type mergeRing struct {
	reqs  [][]byte // per edge
	seqAt []int    // offset in reqs[k] of the low four bytes of Seq, big-endian
}

func newMergeRing(payloads [][]byte) (*mergeRing, error) {
	ring := &mergeRing{reqs: make([][]byte, len(payloads)), seqAt: make([]int, len(payloads))}
	for k, payload := range payloads {
		render := func(seq uint64) ([]byte, error) {
			body, err := federation.EncodeEnvelope(&federation.Envelope{
				Node: fmt.Sprintf("edge-%d", k), Epoch: 1, Seq: seq,
				Mode: federation.ModeFull, Payload: payload,
			})
			if err != nil {
				return nil, err
			}
			return postRequest("/v1/merge", "application/octet-stream", body), nil
		}
		req, err := render(mergeSeqBase)
		if err != nil {
			return nil, err
		}
		probe, err := render(mergeSeqBase | 0x01020304)
		if err != nil {
			return nil, err
		}
		at := 0
		for at < len(req) && at < len(probe) && req[at] == probe[at] {
			at++
		}
		if len(req) != len(probe) || at+4 > len(req) ||
			!bytes.Equal(req[at:at+4], []byte{0, 0, 0, 0}) || !bytes.Equal(probe[at:at+4], []byte{1, 2, 3, 4}) ||
			!bytes.Equal(req[at+4:], probe[at+4:]) {
			return nil, fmt.Errorf("bench: edge %d: Seq is not four big-endian bytes at a fixed offset of the encoded envelope; mergeRing must learn the new codec", k)
		}
		ring.reqs[k], ring.seqAt[k] = req, at
	}
	return ring, nil
}

// push stamps push i of the round-robin over the edges into its edge's
// request and returns it. The bytes are valid until the edge's next push.
func (m *mergeRing) push(i int) []byte {
	k := i % len(m.reqs)
	binary.BigEndian.PutUint32(m.reqs[k][m.seqAt[k]:], uint32(i+1))
	return m.reqs[k]
}

func runFederationFanin(e *env) (*runResult, error) {
	pre := e.newPreload()
	totalQueries := int(float64(faninQueryRate) * (warmup + e.window).Seconds())
	queries := newFaninQueries(e, totalQueries)

	var payloads [][]byte
	srv, args, setup, err := e.setupServer(pre, nil, func() (err error) {
		payloads, err = e.buildEdgePayloads()
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() { srv.kill() }()
	ring, err := newMergeRing(payloads)
	if err != nil {
		return nil, err
	}
	conns, closeConns, err := connPool(srv.addr, 2)
	if err != nil {
		return nil, err
	}
	defer closeConns()

	// Connection 1: merges, closed loop.
	start := time.Now().Add(10 * time.Millisecond)
	stop := make(chan struct{})
	var merges, asks [][]opRecord
	mergeDone, askDone := make(chan struct{}), make(chan struct{})
	pushes := make([]int64, faninEdges)
	go func() {
		defer close(mergeDone)
		merges = closedLoop(start, 1, stop, func(_, i int) (int, int, int) {
			status, _, _ := conns[0].do(ring.push(i), false)
			if ok2xx(status) {
				pushes[i%faninEdges]++
			}
			return opMerge, status, faninEdgeKeys
		})
	}()
	// Connection 2: queries against the merged view, open loop.
	go func() {
		defer close(askDone)
		asks = openLoop(start, faninQueryRate, totalQueries, 1, func(_, i int) (int, int, int) {
			status, _, _ := conns[1].do(queries[i].req, false)
			return queries[i].kind, status, 0
		})
	}()
	win, err := observeWindow(srv, false, start.Add(warmup), e.window)
	close(stop)
	<-mergeDone
	<-askDone
	if err != nil {
		return nil, err
	}
	mergeLog := newOpLog(merges, warmup, e.window)
	askLog := newOpLog(asks, warmup, e.window)

	// The view must hold the preload plus the latest payload of each edge,
	// and answer exactly as one sketch fed the union of the streams.
	o := newOracle()
	union, err := newDemoPipeline()
	if err != nil {
		return nil, err
	}
	feed := func(keys []uint64) error {
		o.add(keys, 1)
		return processAll(union, keys)
	}
	if err := feed(pre.keys); err != nil {
		return nil, err
	}
	for k := 0; k < faninEdges; k++ {
		if pushes[k] == 0 {
			return nil, fmt.Errorf("bench: edge %d never merged: window too short for one round", k)
		}
		if err := feed(e.edgeStream(k)); err != nil {
			return nil, err
		}
	}
	if err := verifyServer(srv, o, true, 0); err != nil {
		return nil, err
	}
	cn, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer cn.close()
	for _, k := range o.top(oracleTop) {
		var got struct {
			Estimate int64 `json:"estimate"`
		}
		if err := cn.getJSON(queryRequest(opEstimate, k), &got); err != nil {
			return nil, err
		}
		if want, _ := union.Estimate("sketch", k); got.Estimate != want {
			return nil, fmt.Errorf("bench: INCORRECT: merged count-min estimate of key %d = %d, a sketch of the union stream says %d",
				k, got.Estimate, want)
		}
	}

	res := newResult()
	res.e2e["setup_s"] = setup.Seconds()
	res.e2e["rss_mb"] = win.rssMiB
	ingestMetrics(res, mergeLog, win.serverCPU, opMerge, mergeLog.samples(isKind(opMerge), false))
	queryMetrics(res, askLog)
	res.layer["client.gen_late_p99_ms"] = askLog.lateP99Ms()
	res.layer["client.stall_max_ms"] = max(res.layer["client.stall_max_ms"],
		float64(askLog.stallMax())/float64(time.Millisecond))
	nMerges, _ := inWindow(mergeLog.samples(isKind(opMerge), false), e.window)
	if nMerges > 0 {
		res.layer["client.cpu_ms_per_merge"] = float64(win.serverCPU) / float64(time.Millisecond) / float64(nMerges)
	}
	if res.layer["federation.applied"], err = scrapeCounter(cn, `streamagg_federation_merges_total{result="applied"}`); err != nil {
		return nil, err
	}
	stale, err1 := scrapeCounter(cn, `streamagg_federation_merges_total{result="stale"}`)
	dup, err2 := scrapeCounter(cn, `streamagg_federation_merges_total{result="duplicate"}`)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("bench: reading federation counters: %v %v", err1, err2)
	}
	res.layer["federation.stale_rejects"] = stale + dup

	srv, recov, err := e.restartRounds(srv, args, restartRoundsMemory)
	if err != nil {
		return nil, err
	}
	res.e2e["recovery_s"] = recov.Seconds()
	t := mergeLog.tally()
	t.add(askLog.tally())
	res.attempted, res.failed = t.requests, t.failed()
	win.layerCounts(res.layer)
	tallyCounts(t, res.layer)
	return res, nil
}
