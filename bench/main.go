// Command bench is the repository's benchmark of record (BENCHMARK.json):
// four workloads, end-to-end metrics read from outside the process under
// test, and, with -trace 1, per-layer metrics taken by timing calls into
// each layer's public functions. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// env is what one run of one workload works with.
type env struct {
	lay       layout
	serverBin string
	cleanup   *cleanup
	seed      int64
	window    time.Duration
	nproc     int
	zipf      *zipf
}

// metricSpec and benchSpec mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// outMetric is one value in the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// report prints exactly the metrics BENCHMARK.json names, which is the only
// table of names, units and directions there is. An end-to-end metric the
// run did not produce is an error; a per-layer one reads 0 (a layer the
// workload leaves idle counts nothing). A value the file does not name is
// an error either way: the file and the code have drifted.
func report(specs []metricSpec, values map[string]float64, strict bool) (map[string]outMetric, error) {
	out := make(map[string]outMetric, len(specs))
	named := make(map[string]bool, len(specs))
	for _, m := range specs {
		named[m.Name] = true
	}
	for _, name := range sortedKeys(values) {
		if !named[name] {
			return nil, fmt.Errorf("bench: the run produced %s, which BENCHMARK.json does not name", name)
		}
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if strict && (!ok || math.IsNaN(v) || v <= 0) {
			return nil, fmt.Errorf("bench: end-to-end metric %s was not measured (value %v)", m.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = outMetric{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func printTable(title string, specs []metricSpec, m map[string]outMetric) {
	fmt.Println(title)
	for _, s := range specs {
		fmt.Printf("  %-44s %16.6g %s\n", s.Name, m[s.Name].Value, s.Unit)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: ingest-http, ingest-core, mixed-durable or federation-fanin")
	seed := flag.Int64("seed", 42, "the only input to request generation")
	seconds := flag.Int("seconds", 0, "length of the measured window (default: run_seconds in BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1: run the traced per-layer pass and print per-layer metrics")
	repeat := flag.Int("repeat", 0, "run every workload this many times and print medians, quartiles and spread")
	compare := flag.Bool("compare", false, "with -repeat: also compare the medians with the previous set of runs")
	flag.Parse()

	lay, err := findLayout()
	if err != nil {
		return err
	}
	spec, err := loadSpec(lay.root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if err := os.MkdirAll(filepath.Join(lay.out, "bin"), 0o755); err != nil {
		return err
	}

	clean := &cleanup{}
	defer clean.run()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Interrupted: still reap every child and remove every data dir.
		cancel()
		clean.run()
		os.Exit(130)
	}()

	if *repeat > 0 {
		return repeatRuns(ctx, lay, spec, *repeat, *seed, *seconds, *compare)
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("bench: unknown workload %q (want one of %v)", *name, workloadNames())
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		return err // fail loudly: without /proc every CPU metric would read zero
	}
	e := &env{
		lay: lay, cleanup: clean, seed: *seed, nproc: runtime.NumCPU(),
		window: time.Duration(*seconds) * time.Second,
		zipf:   newZipf(keyUniverse, zipfSkew),
	}
	if e.serverBin, err = lay.buildServer(ctx); err != nil {
		return err
	}

	line := resultLine{Correct: true}
	if *traced == 0 {
		res, err := wl.run(e)
		if err != nil {
			return err
		}
		if line.Metrics, err = report(spec.EndToEnd, res.e2e, true); err != nil {
			return err
		}
		line.Attempted, line.Failed = res.attempted, res.failed
		printTable(wl.name+": end-to-end metrics (tracing off)", spec.EndToEnd, line.Metrics)
	} else {
		values, attempted, failed, err := tracedRun(e, wl)
		if err != nil {
			return err
		}
		if line.Metrics, err = report(spec.PerLayer, values, false); err != nil {
			return err
		}
		line.Attempted, line.Failed = attempted, failed
		printTable(wl.name+": per-layer metrics (traced pass)", spec.PerLayer, line.Metrics)
	}
	clean.run()
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
