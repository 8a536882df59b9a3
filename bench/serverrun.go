package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// preload is the fixed body of keys every workload ingests during set-up.
type preload struct {
	keys []uint64
	reqs [][]byte
}

func (e *env) newPreload() preload {
	p := preload{keys: e.zipf.keys(streamSeed(e.seed, "preload"), preloadKeys)}
	for i := 0; i < len(p.keys); i += preloadBatch {
		p.reqs = append(p.reqs, ingestRequest(p.keys[i:i+preloadBatch], true))
	}
	return p
}

// send posts the preload over one connection, each request flushed before
// it is answered. One batch in flight at a time keeps the server's peak
// heap during set-up the same from run to run; a concurrent burst made
// rss_mb bimodal on the workload whose steady load is light.
func (p preload) send(addr string) error {
	cn, err := dial(addr)
	if err != nil {
		return err
	}
	defer cn.close()
	for i, req := range p.reqs {
		if status, _, err := cn.do(req, false); err != nil || !ok2xx(status) {
			return fmt.Errorf("preload request %d: status %d: %v", i, status, err)
		}
	}
	return nil
}

// setupServer performs the workload's set-up setupRepeats times — spawn,
// /readyz, preload flushed, then extra (the fan-in's edge payloads) — and
// returns the last server with the median set-up time. args is called per
// spawn so a durable server gets a fresh data directory each time.
func (e *env) setupServer(pre preload, args func() ([]string, error), extra func() error) (*child, []string, time.Duration, error) {
	var times []time.Duration
	var srv *child
	var last []string
	for round := 0; round < setupRepeats; round++ {
		if srv != nil {
			srv.kill()
		}
		var a []string
		if args != nil {
			var err error
			if a, err = args(); err != nil {
				return nil, nil, 0, err
			}
		}
		begin := time.Now()
		s, err := e.spawn(a...)
		if err != nil {
			return nil, nil, 0, err
		}
		srv, last = s, a
		if err := pre.send(srv.addr); err != nil {
			srv.kill()
			return nil, nil, 0, fmt.Errorf("bench: set-up: %w", err)
		}
		if extra != nil {
			if err := extra(); err != nil {
				srv.kill()
				return nil, nil, 0, err
			}
		}
		times = append(times, time.Since(begin))
	}
	return srv, last, medianDuration(times), nil
}

// restartRounds crashes the server with SIGKILL and restarts it with the
// same flags, rounds times; each round is timed from the kill to /readyz
// 200. It returns the last server and the median.
func (e *env) restartRounds(srv *child, args []string, rounds int) (*child, time.Duration, error) {
	var times []time.Duration
	for round := 0; round < rounds; round++ {
		begin := time.Now()
		srv.kill()
		s, err := e.spawn(args...)
		if err != nil {
			return srv, 0, fmt.Errorf("bench: restart round %d: %w", round, err)
		}
		times = append(times, time.Since(begin))
		srv = s
	}
	return srv, medianDuration(times), nil
}

// serverStats is the part of GET /v1/stats and /v1/persist/stats the
// per-layer counts come from.
type serverStats struct {
	StreamLen int64 `json:"stream_len"`
	Ingest    struct {
		Dropped     int64 `json:"dropped"`
		Rejected    int64 `json:"rejected"`
		QueueDepth  int64 `json:"queue_depth"`
		Batches     int64 `json:"batches"`
		SizeFlushes int64 `json:"size_flushes"`
		Processed   int64 `json:"processed"`
	} `json:"ingest"`
	Persist struct {
		AppendedRecords int64 `json:"appended_records"`
		AppendedBytes   int64 `json:"appended_bytes"`
		Fsyncs          int64 `json:"fsyncs"`
		Snapshots       int64 `json:"snapshots"`
	} `json:"-"`
}

func readStats(cn *conn, durable bool) (serverStats, error) {
	var st serverStats
	if err := cn.getJSON(getRequest("/v1/stats"), &st); err != nil {
		return st, fmt.Errorf("bench: GET /v1/stats: %w", err)
	}
	if durable {
		if err := cn.getJSON(getRequest("/v1/persist/stats"), &st.Persist); err != nil {
			return st, fmt.Errorf("bench: GET /v1/persist/stats: %w", err)
		}
	}
	return st, nil
}

// window is what the driver read from outside the server over the
// measured window.
type window struct {
	serverCPU, selfCPU time.Duration
	before, after      serverStats
	queueDepthMax      int64
	rssMiB             float64
}

// observeWindow sleeps until the measured window opens, reads the
// server's CPU clock and counters, polls the queue depth four times a
// second, and reads everything again when the window closes.
func observeWindow(srv *child, durable bool, t0 time.Time, dur time.Duration) (window, error) {
	var w window
	cn, err := dial(srv.addr)
	if err != nil {
		return w, err
	}
	defer cn.close()
	time.Sleep(time.Until(t0))
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return w, err
	}
	self0 := selfCPU()
	if w.before, err = readStats(cn, durable); err != nil {
		return w, err
	}
	t1 := t0.Add(dur)
	for time.Until(t1) > 250*time.Millisecond {
		time.Sleep(250 * time.Millisecond)
		st, err := readStats(cn, false)
		if err != nil {
			return w, err
		}
		w.queueDepthMax = max(w.queueDepthMax, st.Ingest.QueueDepth)
	}
	time.Sleep(time.Until(t1))
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return w, err
	}
	w.serverCPU, w.selfCPU = cpu1-cpu0, selfCPU()-self0
	if w.after, err = readStats(cn, durable); err != nil {
		return w, err
	}
	w.rssMiB, err = procPeakRSSMiB(srv.pid())
	return w, err
}

// layerCounts turns a window's counter deltas into per-layer metrics.
func (w window) layerCounts(m map[string]float64) {
	a, b := w.after.Ingest, w.before.Ingest
	batches := a.Batches - b.Batches
	m["ingestor.batches"] = float64(batches)
	if batches > 0 {
		m["ingestor.mean_batch_items"] = float64(a.Processed-b.Processed) / float64(batches)
		m["ingestor.size_flush_share"] = float64(a.SizeFlushes-b.SizeFlushes) / float64(batches)
	}
	m["ingestor.queue_depth_max"] = float64(w.queueDepthMax)
	m["ingestor.rejected"] = float64(a.Rejected - b.Rejected)
	m["ingestor.dropped"] = float64(a.Dropped - b.Dropped)
	pa, pb := w.after.Persist, w.before.Persist
	m["persist.appended_records"] = float64(pa.AppendedRecords - pb.AppendedRecords)
	m["persist.fsyncs"] = float64(pa.Fsyncs - pb.Fsyncs)
	m["persist.snapshots"] = float64(pa.Snapshots - pb.Snapshots)
	if items := a.Processed - b.Processed; items > 0 {
		m["persist.wal_bytes_per_item"] = float64(pa.AppendedBytes-pb.AppendedBytes) / float64(items)
	}
	if total := w.serverCPU + w.selfCPU; total > 0 {
		m["client.cpu_share"] = float64(w.selfCPU) / float64(total)
	}
}

// tallyCounts reports the driver's own response tallies.
func tallyCounts(t tally, m map[string]float64) {
	m["server.requests"] = float64(t.requests)
	m["server.status_2xx"] = float64(t.s2xx)
	m["server.status_4xx"] = float64(t.s4xx)
	m["server.status_429"] = float64(t.s429)
	m["server.status_5xx"] = float64(t.s5xx)
	m["server.transport_errors"] = float64(t.transport)
	if t.requests > 0 {
		m["client.fail_ratio"] = float64(t.failed()) / float64(t.requests)
	}
}

// scrapeCounter reads one sample from the server's /metrics exposition,
// e.g. `streamagg_federation_merges_total{result="applied"}`.
func scrapeCounter(cn *conn, series string) (float64, error) {
	status, body, err := cn.do(getRequest("/metrics"), true)
	if err != nil || status != 200 {
		return 0, fmt.Errorf("bench: GET /metrics: status %d: %v", status, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("bench: /metrics has no series %s", series)
}
