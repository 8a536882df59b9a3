package streamagg

// The executable half of THEOREMS.md. Every space row of that table is
// one spaceRow here. A row sweeps SpaceWords() of the implementing
// structure, filled to its worst case, along each parameter its bound
// names, and asserts two things:
//
//   - the shape: along each axis, the least-squares slope of log(space)
//     against log(factor) is within ±slopeTolerance of the bound's
//     exponent in that factor. The bound's other factors are divided out
//     first, so an axis that moves two of them at once (ε moves both ε⁻¹
//     and log₂(εn) in the basic counter's bound) is fitted in its own;
//   - the constant: SpaceWords/bound ≤ c at every point, with c the
//     number written in the THEOREMS.md row.
//
// Each bound is the O(·) expression with leading constant 1, so c is the
// constant the implementation pays. TestTheoremsTable keeps the bound and
// c of each row here equal to what THEOREMS.md prints.

import (
	"fmt"
	"go/ast"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/css"
	"repro/internal/mg"
	"repro/internal/swfreq"
	"repro/internal/workload"
	"repro/internal/wsum"
)

const slopeTolerance = 0.15

// spacePoint is one measurement: the axis factor x, the structure's
// SpaceWords and the bound's value at the same parameters.
type spacePoint struct{ x, space, bound float64 }

// spaceAxis is one sweep: the factor it moves, the bound's exponent in
// that factor, and the measurements.
type spaceAxis struct {
	factor string
	exp    float64
	points func() []spacePoint
}

// spaceRow is one THEOREMS.md space row.
type spaceRow struct {
	claim string  // the row's first cell in THEOREMS.md
	bound string  // the bound, as THEOREMS.md writes it
	c     float64 // largest allowed SpaceWords/bound
	axes  []spaceAxis
}

// filledBasicCounter feeds a full window of one-bits, which fills every
// level of the ladder, into a basic counter.
func filledBasicCounter(n int64, eps float64) *bcount.Counter {
	c := bcount.New(n, eps)
	b := min(n, 1<<14)
	ones := css.FromFunc(int(b), func(int) bool { return true })
	for fed := int64(0); fed < n; fed += b {
		c.Advance(ones)
	}
	return c
}

// filledWindowSum feeds a full window of the value R, which sets every
// bit slice to all ones.
func filledWindowSum(n int64, r uint64, eps float64) *wsum.Summer {
	s := wsum.New(n, r, eps)
	vals := make([]uint64, min(n, 1<<14))
	for i := range vals {
		vals[i] = r
	}
	for fed := int64(0); fed < n; fed += int64(len(vals)) {
		s.Advance(vals)
	}
	return s
}

// spaceRows is the table. The sweeps stay small enough to run under
// the race detector.
func spaceRows() []spaceRow {
	epsSweep := []float64{1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64}
	return []spaceRow{
		{
			claim: "Thm 4.1", bound: "ε⁻¹·log₂(εn)", c: 17.5,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					const n = 1 << 16
					for _, eps := range epsSweep {
						c := filledBasicCounter(n, eps)
						ps = append(ps, spacePoint{1 / eps, float64(c.SpaceWords()), math.Log2(eps*n) / eps})
					}
					return ps
				}},
				{"log₂(εn)", 1, func() (ps []spacePoint) {
					const eps = 1.0 / 16
					for _, n := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18} {
						c := filledBasicCounter(n, eps)
						l := math.Log2(eps * float64(n))
						ps = append(ps, spacePoint{l, float64(c.SpaceWords()), l / eps})
					}
					return ps
				}},
			},
		},
		{
			claim: "Thm 4.2", bound: "ε⁻¹·log₂(εn)·log₂(R+1)", c: 17.5,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					const n, r = 1 << 14, 15
					for _, eps := range epsSweep {
						s := filledWindowSum(n, r, eps)
						ps = append(ps, spacePoint{1 / eps, float64(s.SpaceWords()), math.Log2(eps*n) * math.Log2(r+1) / eps})
					}
					return ps
				}},
				{"log₂(εn)", 1, func() (ps []spacePoint) {
					const eps, r = 1.0 / 16, 15
					for _, n := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
						s := filledWindowSum(n, r, eps)
						l := math.Log2(eps * float64(n))
						ps = append(ps, spacePoint{l, float64(s.SpaceWords()), l * math.Log2(r+1) / eps})
					}
					return ps
				}},
				{"log₂(R+1)", 1, func() (ps []spacePoint) {
					const eps, n = 1.0 / 16, 1 << 12
					for _, r := range []uint64{1, 3, 15, 255} {
						s := filledWindowSum(n, r, eps)
						b := math.Log2(float64(r) + 1)
						ps = append(ps, spacePoint{b, float64(s.SpaceWords()), math.Log2(eps*n) * b / eps})
					}
					return ps
				}},
			},
		},
		{
			// A Zipf stream over 4/ε+1 keys has enough distinct counts at
			// the cutoff to keep the summary full, even at twice its
			// capacity.
			claim: "Thm 5.2", bound: "ε⁻¹", c: 4.3,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					for _, inv := range []float64{16, 64, 256, 1024} {
						g := mg.New(1 / inv)
						for _, b := range workload.Batches(workload.Zipf(52, 1<<19, 1.1, uint64(4*inv)), 1<<14) {
							g.ProcessBatch(b)
						}
						ps = append(ps, spacePoint{inv, float64(g.SpaceWords()), inv})
					}
					return ps
				}},
			},
		},
		{
			// A uniform stream over exactly S keys fills the shared
			// summary and every local one.
			claim: "Fig. 1", bound: "p·(shared MG words)", c: 1.05,
			axes: []spaceAxis{
				{"p", 1, func() (ps []spacePoint) {
					const s = 1001
					stream := workload.Batches(workload.Uniform(11, 1<<18, s), 1<<14)
					shared := mg.NewWithCapacity(s)
					for _, b := range stream {
						shared.ProcessBatch(b)
					}
					for _, p := range []int{1, 2, 4, 8} {
						ind := baseline.NewIndependent(p, s)
						for _, b := range stream {
							ind.ProcessBatch(b)
						}
						ps = append(ps, spacePoint{float64(p), float64(ind.SpaceWords()), float64(p * shared.SpaceWords())})
					}
					return ps
				}},
			},
		},
		{
			claim: "Thm 5.4", bound: "ε⁻¹", c: 76,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					const n = 1 << 14
					stream := workload.Batches(workload.Zipf(54, 4*n, 1.1, 1<<20), 1<<12)
					for _, eps := range epsSweep {
						e := swfreq.New(n, eps)
						for _, b := range stream {
							e.ProcessBatch(b)
						}
						ps = append(ps, spacePoint{1 / eps, float64(e.SpaceWords()), 1 / eps})
					}
					return ps
				}},
			},
		},
		{
			claim: "Thm 6.1", bound: "ε⁻¹·ln(1/δ)", c: 3,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					const delta = 0.01
					for _, inv := range []float64{1e2, 1e3, 1e4} {
						s := cms.New(1/inv, delta, 1)
						ps = append(ps, spacePoint{inv, float64(s.SpaceWords()), inv * math.Log(1/delta)})
					}
					return ps
				}},
				{"ln(1/δ)", 1, func() (ps []spacePoint) {
					const inv = 1e3
					for _, delta := range []float64{1.0 / 16, 1.0 / 256, 1.0 / 4096, 1.0 / 65536} {
						s := cms.New(1/inv, delta, 1)
						l := math.Log(1 / delta)
						ps = append(ps, spacePoint{l, float64(s.SpaceWords()), inv * l})
					}
					return ps
				}},
			},
		},
		{
			claim: "count-min-range", bound: "(log₂U+1)·ε⁻¹·ln(1/δ)", c: 3,
			axes: []spaceAxis{
				{"1/ε", 1, func() (ps []spacePoint) {
					const bits, delta = 16, 0.01
					for _, inv := range []float64{1e2, 1e3, 1e4} {
						r := cms.NewRange(bits, 1/inv, delta, 1)
						ps = append(ps, spacePoint{inv, float64(r.SpaceWords()), (bits + 1) * inv * math.Log(1/delta)})
					}
					return ps
				}},
				{"log₂U+1", 1, func() (ps []spacePoint) {
					const inv, delta = 1e2, 0.01
					for _, bits := range []int{4, 8, 16, 32} {
						r := cms.NewRange(bits, 1/inv, delta, 1)
						levels := float64(bits + 1)
						ps = append(ps, spacePoint{levels, float64(r.SpaceWords()), levels * inv * math.Log(1/delta)})
					}
					return ps
				}},
			},
		},
		{
			claim: "count-sketch", bound: "ε⁻²·ln(1/δ)", c: 3.3,
			axes: []spaceAxis{
				{"1/ε", 2, func() (ps []spacePoint) {
					const delta = 0.01
					for _, inv := range []float64{10, 30, 100} {
						s := cms.NewCountSketch(1/inv, delta, 1)
						ps = append(ps, spacePoint{inv, float64(s.SpaceWords()), inv * inv * math.Log(1/delta)})
					}
					return ps
				}},
				{"ln(1/δ)", 1, func() (ps []spacePoint) {
					const inv = 30.0
					for _, delta := range []float64{1.0 / 16, 1.0 / 256, 1.0 / 4096, 1.0 / 65536} {
						s := cms.NewCountSketch(1/inv, delta, 1)
						l := math.Log(1 / delta)
						ps = append(ps, spacePoint{l, float64(s.SpaceWords()), inv * inv * l})
					}
					return ps
				}},
			},
		},
	}
}

// fitSlope is the least-squares slope of log(y) against log(x).
func fitSlope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += math.Log(xs[i])
		my += math.Log(ys[i])
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for i := range xs {
		dx := math.Log(xs[i]) - mx
		sxy += dx * (math.Log(ys[i]) - my)
		sxx += dx * dx
	}
	return sxy / sxx
}

// TestTheoremSpace holds every space row of THEOREMS.md: a fitted slope
// and a constant per axis.
func TestTheoremSpace(t *testing.T) {
	for _, row := range spaceRows() {
		t.Run(row.claim, func(t *testing.T) {
			for _, ax := range row.axes {
				ps := ax.points()
				xs := make([]float64, len(ps))
				ys := make([]float64, len(ps))
				worst := 0.0
				for i, p := range ps {
					rest := p.bound / math.Pow(p.x, ax.exp)
					xs[i], ys[i] = p.x, p.space/rest
					worst = max(worst, p.space/p.bound)
				}
				slope := fitSlope(xs, ys)
				t.Logf("%s: slope %.3f (exponent %g), SpaceWords ≤ %.3f·%s (c = %g)", ax.factor, slope, ax.exp, worst, row.bound, row.c)
				if math.Abs(slope-ax.exp) > slopeTolerance {
					t.Errorf("%s: space grows as (%s)^%.3f; %s has exponent %g there (±%g)",
						ax.factor, ax.factor, slope, row.bound, ax.exp, slopeTolerance)
				}
				if worst > row.c {
					t.Errorf("%s: SpaceWords reaches %.3f·%s, above c = %g", ax.factor, worst, row.bound, row.c)
				}
			}
		})
	}
}

// citedName matches a test, benchmark or example cited in THEOREMS.md;
// citedPackage matches a package cited by import path.
var (
	citedName    = regexp.MustCompile("`((?:Test|Benchmark|Example)[A-Za-z0-9_]*)`")
	citedPackage = regexp.MustCompile("`(repro(?:/[a-z0-9_]+)*)`")
)

// TestTheoremsTable keeps THEOREMS.md live. Every row must name a
// package and a test or benchmark. Every test, benchmark or example it
// cites must be a function in some _test.go file of the module, every
// package it cites must be a directory of Go files, and every space row
// must print the bound and c that TestTheoremSpace asserts. A rename or deletion then fails here instead of leaving a
// dead row.
func TestTheoremsTable(t *testing.T) {
	doc, err := os.ReadFile("THEOREMS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)

	defined := make(map[string]bool)
	walkGoFiles(t, token.NewFileSet(), func(path string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined[fn.Name.Name] = true
			}
		}
	})

	names := citedName.FindAllStringSubmatch(text, -1)
	if len(names) == 0 {
		t.Fatal("THEOREMS.md cites no test")
	}
	for _, m := range names {
		if !defined[m[1]] {
			t.Errorf("THEOREMS.md cites %s, which no _test.go file defines", m[1])
		}
	}
	for _, m := range citedPackage.FindAllStringSubmatch(text, -1) {
		dir := "." + strings.TrimPrefix(m[1], "repro")
		if gofiles, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gofiles) == 0 {
			t.Errorf("THEOREMS.md cites package %s, which has no Go files", m[1])
		}
	}

	rows := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") || len(cells) < 3 {
			continue
		}
		claim := strings.TrimSpace(cells[1])
		if claim == "Claim" {
			continue
		}
		rows[claim] = line
		if !citedPackage.MatchString(line) || !citedName.MatchString(line) {
			t.Errorf("THEOREMS.md row %q does not name both a package and a test or benchmark", claim)
		}
	}
	for _, row := range spaceRows() {
		line, ok := rows[row.claim]
		if !ok {
			t.Errorf("THEOREMS.md has no row %q", row.claim)
			continue
		}
		for _, want := range []string{row.bound, fmt.Sprintf("c = %g", row.c), "`TestTheoremSpace`"} {
			if !strings.Contains(line, want) {
				t.Errorf("THEOREMS.md row %q does not say %s", row.claim, want)
			}
		}
	}
}
