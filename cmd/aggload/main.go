// aggload is the open-loop load harness for aggserve: it drives a
// running server over HTTP with a mixed ingest/query workload at a
// fixed offered rate and reports the latency a client actually
// observes — p50/p90/p99/p99.9 and max per verb and per status class,
// measured against each operation's *intended* start time so queueing
// delay behind a slow server is charged to every operation it delayed
// (coordinated-omission-safe), plus achieved-vs-offered rate.
//
// Usage:
//
//	aggload -target http://127.0.0.1:8080 -rate 1000 -workers 4 \
//	        -duration 30s [-warmup 2s] \
//	        [-mix "ingest=80,estimate@sketch=8,topk@hot=3,..."] \
//	        [-batch 64] [-dist zipf|uniform|distinct] [-zipf-s 1.1] \
//	        [-universe 262144] [-seed 42] [-timeout 10s] \
//	        [-json report.json] [-quiet]
//
// The mix grammar is verb[@aggregate]=weight, comma-separated; query
// verbs name the aggregate they hit, ingest targets the pipeline. The
// default mix matches aggserve's demo aggregates. Progress prints once
// a second; the final report prints as a table and, with -json, is
// written as machine-readable JSON (the schema the CI aggload smoke
// asserts on). Exits nonzero if the run saw any transport errors or 5xx
// responses and -strict is set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8080", "base URL of the aggserve instance to drive")
	rate := flag.Float64("rate", 1000, "offered arrival rate in ops/s across all workers")
	workers := flag.Int("workers", 4, "concurrent issuing goroutines")
	duration := flag.Duration("duration", 30*time.Second, "measured window")
	warmup := flag.Duration("warmup", 2*time.Second, "unmeasured lead-in at the same rate")
	mixStr := flag.String("mix", loadgen.DefaultMix, "verb mix: verb[@aggregate]=weight,...")
	batch := flag.Int("batch", 64, "items per ingest operation")
	dist := flag.String("dist", "zipf", "key distribution: zipf, uniform, or distinct")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf skew (> 1; used by -dist zipf)")
	universe := flag.Uint64("universe", 1<<18, "key universe size")
	seed := flag.Int64("seed", 42, "workload seed (deterministic key pool and mix draws)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	jsonPath := flag.String("json", "", "write the machine-readable report to this file")
	quiet := flag.Bool("quiet", false, "suppress the live per-second progress lines")
	strict := flag.Bool("strict", false, "exit 1 if any 5xx or transport error was observed")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggload: %v\n", err)
		os.Exit(2)
	}
	cfg := loadgen.Config{
		Target:   *target,
		Rate:     *rate,
		Workers:  *workers,
		Duration: *duration,
		Warmup:   *warmup,
		Mix:      mix,
		Batch:    *batch,
		Timeout:  *timeout,
		Keys: loadgen.Keys{
			Dist:     *dist,
			ZipfS:    *zipfS,
			Universe: *universe,
			Seed:     *seed,
		},
	}
	if !*quiet {
		cfg.OnTick = func(t loadgen.Tick) {
			phase := ""
			if t.InWarmup {
				phase = " [warmup]"
			}
			fmt.Printf("t=%-6s offered=%.0f/s achieved=%.0f/s ops=%d p50=%.2fms p99=%.2fms 5xx=%d err=%d%s\n",
				t.Elapsed.Truncate(100*time.Millisecond), t.Offered, t.Achieved,
				t.Ops, t.P50Ms, t.P99Ms, t.Bad5xx, t.Errors, phase)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aggload: %v\n", err)
		os.Exit(2)
	}

	printReport(rep)
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "aggload: encoding report: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "aggload: writing %s: %v\n", *jsonPath, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *strict && (rep.Status["5xx"] > 0 || rep.Status["error"] > 0) {
		fmt.Fprintf(os.Stderr, "aggload: strict mode: %d 5xx, %d transport errors\n",
			rep.Status["5xx"], rep.Status["error"])
		os.Exit(1)
	}
}

func printReport(rep *loadgen.Report) {
	fmt.Printf("\ntarget    %s\n", rep.Target)
	fmt.Printf("offered   %.1f ops/s   achieved %.1f ops/s (%.1f%%)   items %.0f/s\n",
		rep.OfferedPerSec, rep.AchievedPerSec,
		pct(rep.AchievedPerSec, rep.OfferedPerSec), rep.ItemsPerSec)
	fmt.Printf("window    %.1fs measured after %.1fs warmup, %d workers, %d ops\n",
		rep.DurationSeconds, rep.WarmupSeconds, rep.Workers, rep.Ops)
	fmt.Printf("status    2xx=%d 3xx=%d 4xx=%d 5xx=%d error=%d\n\n",
		rep.Status["2xx"], rep.Status["3xx"], rep.Status["4xx"],
		rep.Status["5xx"], rep.Status["error"])

	fmt.Printf("%-22s %9s %9s %9s %9s %9s %9s\n",
		"verb", "ops", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms", "max ms")
	row := func(name string, ops int64, p loadgen.Percentiles) {
		fmt.Printf("%-22s %9d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			name, ops, p.P50, p.P90, p.P99, p.P999, p.Max)
	}
	labels := make([]string, 0, len(rep.Verbs))
	for l := range rep.Verbs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		v := rep.Verbs[l]
		row(l, v.Ops, v.Latency)
	}
	row("all", rep.Ops, rep.Latency)
}

func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
