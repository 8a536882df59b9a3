package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is bench/out/result.json: one set of runs with the machine
// it ran on, so two sets can be told apart before they are compared.
type resultFile struct {
	Commit     string                          `json:"commit"`
	Seed       int64                           `json:"seed"`
	Seconds    int                             `json:"seconds"`
	Repeat     int                             `json:"repeat"`
	NProc      int                             `json:"nproc"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	GoVersion  string                          `json:"go_version"`
	CPUModel   string                          `json:"cpu_model"`
	DataDir    string                          `json:"data_dir"`
	Tmpfs      bool                            `json:"data_dir_tmpfs"`
	When       string                          `json:"when"`
	Runs       map[string]map[string][]float64 `json:"runs"` // workload → metric → one value per run
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSelf runs one workload in a fresh process, so peak RSS and CPU of
// one run never leak into the next, and returns its result line.
func runSelf(ctx context.Context, lay layout, name string, seed int64, seconds int) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Dir = lay.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: %s failed: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("bench: %s printed no result line: %w", name, err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("bench: %s: correct=%v, %d of %d operations failed", name, line.Correct, line.Failed, line.Attempted)
	}
	return &line, nil
}

// repeatRuns is -repeat N [-compare]: every workload N times, then per
// (workload, metric) the median, quartiles and spread against the metric's
// bound. A spread wider than the bound cannot resolve a change of the size
// the bound forbids, and says so. With -compare the medians are also set
// against the previous set of runs (result.prev.json).
func repeatRuns(ctx context.Context, lay layout, spec *benchSpec, n int, seed int64, seconds int, compare bool) error {
	cur := resultFile{
		Commit: gitCommit(lay.root), Seed: seed, Seconds: seconds, Repeat: n,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), DataDir: lay.out, Tmpfs: onTmpfs(lay.out),
		When: time.Now().UTC().Format(time.RFC3339),
		Runs: map[string]map[string][]float64{},
	}
	for round := 0; round < n; round++ {
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, "bench: run %d/%d of %s\n", round+1, n, wl.name)
			line, err := runSelf(ctx, lay, wl.name, seed, seconds)
			if err != nil {
				return err
			}
			if cur.Runs[wl.name] == nil {
				cur.Runs[wl.name] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				cur.Runs[wl.name][name] = append(cur.Runs[wl.name][name], m.Value)
			}
		}
	}

	path := filepath.Join(lay.out, "result.json")
	prevPath := filepath.Join(lay.out, "result.prev.json")
	var prev *resultFile
	if data, err := os.ReadFile(path); err == nil {
		prev = new(resultFile)
		if err := json.Unmarshal(data, prev); err != nil {
			prev = nil
		} else if err := os.WriteFile(prevPath, data, 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(cur, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	fmt.Printf("commit %s, seed %d, %d x %d s, nproc %d, GOMAXPROCS %d, %s, %s, data dir on tmpfs: %v\n",
		cur.Commit, seed, n, seconds, cur.NProc, cur.GOMAXPROCS, cur.GoVersion, cur.CPUModel, cur.Tmpfs)
	fmt.Printf("%-17s %-19s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	worst := "PASS"
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			vals := cur.Runs[wl.name][m.Name]
			q1, med, q3 := quartiles(vals)
			spread := (q3 - q1) / med
			verdict := "PASS"
			if spread > m.Bound {
				verdict = "UNRESOLVED (spread wider than bound)"
			}
			if compare && prev != nil {
				if before := prev.Runs[wl.name][m.Name]; len(before) > 0 {
					base := median(before)
					change := (med - base) / base
					if m.Better == "higher" {
						change = -change
					}
					switch {
					case verdict != "PASS":
					case change > m.Bound:
						verdict = fmt.Sprintf("WORSE by %.1f%% than %s", 100*change, prev.Commit)
					case change > 0:
						verdict = fmt.Sprintf("PASS (%.1f%% worse than %s)", 100*change, prev.Commit)
					default:
						verdict = fmt.Sprintf("PASS (%.1f%% better than %s)", -100*change, prev.Commit)
					}
				}
			}
			if !strings.HasPrefix(verdict, "PASS") {
				worst = "not all PASS"
			}
			fmt.Printf("%-17s %-19s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, med, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	if compare && prev == nil {
		fmt.Println("no previous set of runs to compare with (bench/out/result.json was absent)")
	}
	fmt.Printf("wrote %s: %s\n", path, worst)
	return nil
}
