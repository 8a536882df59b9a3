// aggbench prints the experiment tables E1–E10.
// The paper (SPAA'14) is a theory paper with no measurement tables; each
// experiment here validates one of its theorems empirically — accuracy
// bounds against ground truth, space bounds against the O(·) formulas,
// work bounds as flat per-item cost, depth as multicore speedup, and the
// Section 5.4 comparison against the independent data-structure approach.
// All ten drive the internal engines directly. Performance of the serving
// stack is measured by bench/ (see bench/README.md), not here.
//
// Usage:
//
//	aggbench -experiment E1       # one experiment
//	aggbench -experiment all      # everything (a few minutes)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	which := flag.String("experiment", "all", "experiment id (E1..E10) or 'all'")
	flag.Parse()

	exps := []experiment{
		{"E1", "shared structure vs independent data structures (Fig. 1, §5.4)", runE1},
		{"E2", "basic counting: space/work/accuracy (Theorem 4.1)", runE2},
		{"E3", "sliding-window sum (Theorem 4.2)", runE3},
		{"E4", "infinite-window frequency estimation (Theorem 5.2)", runE4},
		{"E5", "sliding-window variants ablation (Theorems 5.5/5.8/5.4)", runE5},
		{"E6", "count-min sketch (Theorem 6.1)", runE6},
		{"E7", "work linearity: per-item cost flat in N and n (Lemma 5.10)", runE7},
		{"E8", "accuracy: guaranteed vs measured error, all aggregates", runE8},
		{"E9", "parallel speedup: throughput vs workers (depth bounds)", runE9},
		{"E10", "substrates: intSort, buildHist, CSS (Thms 2.2/2.3, Lemma 2.1)", runE10},
	}

	want := strings.ToUpper(*which)
	ran := false
	for _, e := range exps {
		if want == "ALL" || want == e.id {
			fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
			e.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

// table is a tiny fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}
