// streamtool applies the streamagg aggregates to a stream of tokens read
// from stdin, processing in minibatches and printing a report. It is the
// library's command-line face: pipe logs, word streams, or numeric
// readings through it.
//
// Usage:
//
//	streamtool hh   [-phi 0.05] [-eps 0.005] [-window N] [-batch 8192] < tokens
//	    Heavy hitters / top-k over whitespace-separated tokens. With
//	    -window, uses the sliding-window algorithm; otherwise infinite.
//
//	streamtool count [-window 1e6] [-eps 0.01] [-batch 8192] < bits
//	    Sliding-window count of nonzero tokens ("0"/"1" per token).
//
//	streamtool sum  [-window 1e6] [-max 4095] [-eps 0.01] < integers
//	    Sliding-window sum of non-negative integers.
//
//	streamtool quantiles [-bits 20] [-q 0.5,0.9,0.99] < integers
//	    Streaming quantiles via the dyadic count-min structure.
//
//	streamtool inspect <data-dir>
//	    Print a durability directory's snapshots, WAL segments (record
//	    counts, sequence spans, CRC damage), and the replay span a
//	    recovery would perform.
//
//	streamtool push -to URL -node ID [-every 5s]
//	                [-agg "spec1;spec2"] [-batch 8192] < tokens
//	    Federation edge without a server: ingest whitespace-separated
//	    tokens from stdin into a local pipeline and push its whole state
//	    to a root aggserve's /v1/merge on an interval (and once more at
//	    EOF). -node must be stable and unique per edge; the root keeps
//	    the latest push per node and dedups replays by (node, epoch, seq).
package main

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	streamagg "repro"
	"repro/federation"
	"repro/persist"
	"repro/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "hh":
		runHH(args)
	case "count":
		runCount(args)
	case "sum":
		runSum(args)
	case "quantiles":
		runQuantiles(args)
	case "push":
		runPush(args)
	case "inspect":
		runInspect(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: streamtool <subcommand> [flags]

subcommands:
  hh         heavy hitters / top-k over stdin tokens (sliding with -window)
  count      sliding-window count of nonzero stdin tokens
  sum        sliding-window sum of non-negative stdin integers
  quantiles  streaming quantiles over stdin integers
  push       ingest stdin tokens and push summaries to a federation root
  inspect    print a durability data directory's snapshots, segments, and replay span
`)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "streamtool:", err)
	os.Exit(1)
}

// flags is a tiny getopt for "-name value" pairs.
type flags map[string]string

func parseFlags(args []string) flags {
	f := flags{}
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") || i+1 >= len(args) {
			usage()
		}
		f[strings.TrimPrefix(args[i], "-")] = args[i+1]
		i++
	}
	return f
}

func (f flags) float(name string, def float64) float64 {
	if s, ok := f[name]; ok {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fail(err)
		}
		return v
	}
	return def
}

func (f flags) int(name string, def int64) int64 {
	return int64(f.float(name, float64(def)))
}

func (f flags) str(name, def string) string {
	if s, ok := f[name]; ok {
		return s
	}
	return def
}

// runPush is a serverless federation edge: it ingests stdin tokens into
// a local pipeline and ships its summaries to a root's /v1/merge — the
// batch-job counterpart of aggserve's -push-to. Single-threaded, so a
// capture is a plain checkpoint of the pipeline.
func runPush(args []string) {
	f := parseFlags(args)
	target := f.str("to", "")
	node := f.str("node", "")
	if target == "" || node == "" {
		fmt.Fprintln(os.Stderr, "usage: streamtool push -to URL -node ID [-every 5s] [-agg \"spec1;spec2\"] [-batch 8192] < tokens")
		os.Exit(2)
	}
	url, err := server.NormalizePushURL(target)
	if err != nil {
		fail(err)
	}
	every, err := time.ParseDuration(f.str("every", "5s"))
	if err != nil {
		fail(err)
	}
	batch := int(f.int("batch", 8192))
	specList := f.str("agg", strings.Join(server.DemoSpecs, ";"))
	var specs []string
	for _, spec := range strings.Split(specList, ";") {
		if spec = strings.TrimSpace(spec); spec != "" {
			specs = append(specs, spec)
		}
	}
	pipe := streamagg.NewPipeline()
	if err := server.AddSpecs(pipe, specs); err != nil {
		fail(err)
	}
	pusher, err := federation.NewPusher(federation.PusherConfig{
		URL:    url,
		Node:   node,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Source: federation.SourceFunc(pipe.MarshalBinary),
	})
	if err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var total int64
	pushes := 0
	last := time.Now()
	tokens(batch, func(ts []string) {
		ids := make([]uint64, len(ts))
		for i, s := range ts {
			ids[i] = streamagg.HashString(s)
		}
		if err := pipe.ProcessBatch(ids); err != nil {
			fail(err)
		}
		total += int64(len(ts))
		if time.Since(last) >= every {
			if err := pusher.Push(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "streamtool: push failed (will retry next interval): %v\n", err)
			} else {
				pushes++
			}
			last = time.Now()
		}
	})
	if err := pusher.Final(ctx); err != nil {
		fail(fmt.Errorf("final push: %w", err))
	}
	pushes++
	fmt.Printf("pushed %d tokens to %s in %d pushes (node %s)\n",
		total, url, pushes, node)
}

// runInspect prints what recovery would see in a data directory: every
// snapshot and segment with validity, and the replay span. It takes no lock, so it works on a live server's directory.
func runInspect(args []string) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "usage: streamtool inspect <data-dir>")
		os.Exit(2)
	}
	r, err := persist.Inspect(args[0])
	if err != nil {
		fail(err)
	}
	fmt.Printf("data directory %s\n", r.Dir)
	if len(r.Snapshots) == 0 {
		fmt.Println("snapshots: none")
	}
	for _, sn := range r.Snapshots {
		if sn.Valid {
			fmt.Printf("snapshot %s: seq %d, %d bytes, valid\n", sn.Name, sn.Seq, sn.Bytes)
		} else {
			fmt.Printf("snapshot %s: %d bytes, CORRUPT: %s\n", sn.Name, sn.Bytes, sn.Problem)
		}
	}
	if len(r.Segments) == 0 {
		fmt.Println("segments: none")
	}
	for _, sg := range r.Segments {
		span := "empty"
		if sg.LastSeq != 0 {
			span = fmt.Sprintf("seq %d..%d", sg.FirstSeq, sg.LastSeq)
		}
		line := fmt.Sprintf("segment %s: %s, %d records, %d bytes", sg.Name, span, sg.Records, sg.Bytes)
		if sg.Corrupt != "" {
			line += " [" + sg.Corrupt + "]"
		}
		fmt.Println(line)
	}
	if r.ReplayRecords > 0 {
		fmt.Printf("recovery: snapshot seq %d, then replay %d records (seq %d..%d)\n",
			r.RecoverySeq, r.ReplayRecords, r.ReplayFrom, r.ReplayTo)
	} else {
		fmt.Printf("recovery: snapshot seq %d, nothing to replay\n", r.RecoverySeq)
	}
}

// tokens streams whitespace-separated fields from stdin in batches.
func tokens(batch int, emit func([]string)) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	sc.Split(bufio.ScanWords)
	buf := make([]string, 0, batch)
	for sc.Scan() {
		buf = append(buf, sc.Text())
		if len(buf) == batch {
			emit(buf)
			buf = buf[:0]
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if len(buf) > 0 {
		emit(buf)
	}
}

func runHH(args []string) {
	f := parseFlags(args)
	phi := f.float("phi", 0.05)
	eps := f.float("eps", phi/4)
	window := f.int("window", 0)
	batch := int(f.int("batch", 8192))
	topK := int(f.int("top", 10))

	names := make(map[uint64]string)
	toIDs := func(ts []string) []uint64 {
		ids := make([]uint64, len(ts))
		for i, s := range ts {
			ids[i] = streamagg.HashString(s)
			names[ids[i]] = s
		}
		return ids
	}

	var report []streamagg.ItemCount
	var total int64
	if window > 0 {
		a, err := streamagg.New(streamagg.KindSlidingFreq,
			streamagg.WithWindow(window),
			streamagg.WithEpsilon(eps))
		if err != nil {
			fail(err)
		}
		e := a.(*streamagg.SlidingFreqEstimator)
		tokens(batch, func(ts []string) { e.ProcessBatch(toIDs(ts)); total += int64(len(ts)) })
		report = e.HeavyHitters(phi)
		fmt.Printf("heavy hitters (phi=%g) over the last %d of %d tokens:\n", phi, window, total)
	} else {
		a, err := streamagg.New(streamagg.KindFreq, streamagg.WithEpsilon(eps))
		if err != nil {
			fail(err)
		}
		e := a.(*streamagg.FreqEstimator)
		tokens(batch, func(ts []string) { e.ProcessBatch(toIDs(ts)) })
		total = e.StreamLen()
		report = e.HeavyHitters(phi)
		if len(report) == 0 {
			report = e.TopK(topK)
			fmt.Printf("no tokens above phi=%g; top-%d of %d tokens:\n", phi, topK, total)
		} else {
			fmt.Printf("heavy hitters (phi=%g) over %d tokens:\n", phi, total)
		}
	}
	for i, ic := range report {
		if i == topK {
			fmt.Printf("  ... and %d more\n", len(report)-topK)
			break
		}
		fmt.Printf("  %-24s ~%d\n", names[ic.Item], ic.Count)
	}
}

func runCount(args []string) {
	f := parseFlags(args)
	window := f.int("window", 1_000_000)
	eps := f.float("eps", 0.01)
	batch := int(f.int("batch", 8192))
	a, err := streamagg.New(streamagg.KindBasicCounter,
		streamagg.WithWindow(window), streamagg.WithEpsilon(eps))
	if err != nil {
		fail(err)
	}
	c := a.(*streamagg.BasicCounter)
	var total int64
	tokens(batch, func(ts []string) {
		bits := make([]bool, len(ts))
		for i, s := range ts {
			bits[i] = s != "0" && s != ""
		}
		c.ProcessBits(bits)
		total += int64(len(ts))
	})
	fmt.Printf("nonzero tokens in last %d of %d: ~%d (rel err <= %g)\n",
		window, total, c.Estimate(), eps)
}

func runSum(args []string) {
	f := parseFlags(args)
	window := f.int("window", 1_000_000)
	maxV := uint64(f.int("max", 4095))
	eps := f.float("eps", 0.01)
	batch := int(f.int("batch", 8192))
	a, err := streamagg.New(streamagg.KindWindowSum,
		streamagg.WithWindow(window), streamagg.WithMaxValue(maxV), streamagg.WithEpsilon(eps))
	if err != nil {
		fail(err)
	}
	s := a.(*streamagg.WindowSum)
	var total int64
	tokens(batch, func(ts []string) {
		vals := make([]uint64, 0, len(ts))
		for _, t := range ts {
			v, err := strconv.ParseUint(t, 10, 64)
			if err != nil {
				fail(fmt.Errorf("non-integer token %q", t))
			}
			vals = append(vals, v)
		}
		if err := s.ProcessBatch(vals); err != nil {
			fail(err)
		}
		total += int64(len(vals))
	})
	fmt.Printf("sum of last %d of %d values: ~%d (rel err <= %g)\n",
		window, total, s.Estimate(), eps)
}

func runQuantiles(args []string) {
	f := parseFlags(args)
	bits := int(f.int("bits", 20))
	batch := int(f.int("batch", 8192))
	qSpec := "0.5,0.9,0.99"
	if s, ok := f["q"]; ok {
		qSpec = s
	}
	a, err := streamagg.New(streamagg.KindCountMinRange,
		streamagg.WithUniverseBits(bits), streamagg.WithEpsilon(0.0005), streamagg.WithDelta(0.01))
	if err != nil {
		fail(err)
	}
	r := a.(*streamagg.CountMinRange)
	tokens(batch, func(ts []string) {
		vals := make([]uint64, 0, len(ts))
		for _, t := range ts {
			v, err := strconv.ParseUint(t, 10, 64)
			if err != nil {
				fail(fmt.Errorf("non-integer token %q", t))
			}
			if v>>uint(bits) != 0 {
				fail(fmt.Errorf("value %d exceeds universe 2^%d", v, bits))
			}
			vals = append(vals, v)
		}
		r.ProcessBatch(vals)
	})
	fmt.Printf("%d values ingested:\n", r.TotalCount())
	for _, qs := range strings.Split(qSpec, ",") {
		q, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  q=%-5s ~= %d\n", qs, r.Quantile(q))
	}
}
