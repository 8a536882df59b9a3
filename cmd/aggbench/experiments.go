package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/css"
	"repro/internal/hist"
	"repro/internal/mg"
	"repro/internal/minibatch"
	"repro/internal/parallel"
	"repro/internal/swfreq"
	"repro/internal/workload"
	"repro/internal/wsum"
)

// ---------------------------------------------------------------- E1 --

// runE1 compares the shared-structure parallel MG (Theorem 5.2) against
// the independent per-processor approach (Figure 1 / Section 5.4) on
// memory and query cost: the shared structure uses p× less memory and
// needs no merge at query time.
func runE1() {
	const (
		streamLen = 1 << 21
		batchSize = 1 << 15
		eps       = 0.001
	)
	s := int(1/eps) + 1
	stream := workload.Zipf(1, streamLen, 1.1, 1<<20)

	t := newTable("engine", "p", "ingest ns/item", "space words", "query latency")
	// Shared structure (one line, p = all cores).
	shared := mg.New(eps)
	st := minibatch.Drive(minibatch.Func(shared.ProcessBatch), stream, batchSize)
	q0 := time.Now()
	_ = shared.HeavyHitters(0.01)
	sharedQ := time.Since(q0)
	t.add("shared (Thm 5.2)", runtime.GOMAXPROCS(0),
		fmt.Sprintf("%.1f", st.NsPerItem()), shared.SpaceWords(), sharedQ.String())

	for _, p := range []int{1, 2, 4, 8} {
		ind := baseline.NewIndependent(p, s)
		st := minibatch.Drive(minibatch.Func(ind.ProcessBatch), stream, batchSize)
		q0 := time.Now()
		merged := ind.Query() // sequential merge: the bottleneck
		qd := time.Since(q0)
		_ = merged
		t.add("independent+merge", p,
			fmt.Sprintf("%.1f", st.NsPerItem()), ind.SpaceWords(), qd.String())
	}
	t.print()
	fmt.Println("shape check: independent space grows ~p×; shared query needs no merge")
}

// ---------------------------------------------------------------- E2 --

func runE2() {
	const batch = 1 << 15
	t := newTable("n", "eps", "space words", "bound O(log n / eps)", "ns/bit", "max rel err", "guarantee")
	for _, n := range []int64{1 << 16, 1 << 20, 1 << 24} {
		for _, eps := range []float64{0.1, 0.01, 0.001} {
			c := bcount.New(n, eps)
			bits := workload.BurstyBits(n+int64(eps*1000), 1<<21, 1<<14, 0.02, 0.9)
			var window []bool
			start := time.Now()
			var maxRel float64
			for _, b := range workload.BitBatches(bits, batch) {
				c.Advance(css.FromBools(b))
				window = append(window, b...)
				if int64(len(window)) > n {
					window = window[int64(len(window))-n:]
				}
			}
			elapsed := time.Since(start)
			var m int64
			for _, b := range window {
				if b {
					m++
				}
			}
			est := c.Estimate()
			if m > 0 {
				maxRel = float64(est-m) / float64(m)
			}
			// Space bound with explicit constant: (2σ+overhead)·levels.
			bound := c.Levels() * (2*(int(8/eps)+1) + 16)
			t.add(n, eps, c.SpaceWords(), bound,
				fmt.Sprintf("%.2f", float64(elapsed.Nanoseconds())/float64(len(bits))),
				fmt.Sprintf("%.2e", maxRel), eps)
		}
	}
	t.print()
	fmt.Println("shape check: space ~ (1/eps)·log n, flat ns/bit, rel err <= eps")
}

// ---------------------------------------------------------------- E3 --

func runE3() {
	const batch = 1 << 14
	t := newTable("R", "eps", "space words", "ns/value", "rel err", "guarantee")
	n := int64(1 << 18)
	for _, R := range []uint64{255, 65535} {
		for _, eps := range []float64{0.1, 0.01} {
			s := wsum.New(n, R, eps)
			vals := workload.Values(3, 1<<20, R, 2)
			var window []uint64
			start := time.Now()
			for _, b := range workload.Batches(vals, batch) {
				s.Advance(b)
				window = append(window, b...)
				if int64(len(window)) > n {
					window = window[int64(len(window))-n:]
				}
			}
			elapsed := time.Since(start)
			var truth int64
			for _, v := range window {
				truth += int64(v)
			}
			rel := 0.0
			if truth > 0 {
				rel = float64(s.Estimate()-truth) / float64(truth)
			}
			t.add(R, eps, s.SpaceWords(),
				fmt.Sprintf("%.1f", float64(elapsed.Nanoseconds())/float64(len(vals))),
				fmt.Sprintf("%.2e", rel), eps)
		}
	}
	t.print()
	fmt.Println("shape check: space and work scale ~log R; rel err <= eps")
}

// ---------------------------------------------------------------- E4 --

func runE4() {
	const streamLen = 1 << 21
	const batch = 1 << 15
	t := newTable("zipf s", "eps", "ns/item", "space words", "max err / eps*m")
	for _, skew := range []float64{0.8, 1.1, 1.5} {
		for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
			g := mg.New(eps)
			stream := workload.Zipf(int64(skew*10), streamLen, 1.00001+skew, 1<<20)
			exact := make(map[uint64]int64)
			st := minibatch.Drive(minibatch.Func(g.ProcessBatch), stream, batch)
			for _, it := range stream {
				exact[it]++
			}
			worst := 0.0
			bound := eps * float64(streamLen)
			for it, fe := range exact {
				if r := float64(fe-g.Estimate(it)) / bound; r > worst {
					worst = r
				}
			}
			t.add(fmt.Sprintf("%.1f", skew), eps,
				fmt.Sprintf("%.1f", st.NsPerItem()), g.SpaceWords(),
				fmt.Sprintf("%.3f", worst))
		}
	}
	t.print()
	fmt.Println("shape check: flat ns/item in eps; space ~ 1/eps; err ratio <= 1")
}

// ---------------------------------------------------------------- E5 --

func runE5() {
	const (
		n         = int64(1 << 20)
		eps       = 1.0 / 128
		streamLen = 1 << 21
		batch     = 1 << 14
	)
	stream := workload.Zipf(5, streamLen, 1.1, 1<<18)
	t := newTable("variant", "ns/item", "persistent space words", "live counters")
	for _, v := range []swfreq.Variant{swfreq.Basic, swfreq.SpaceEfficient, swfreq.WorkEfficient} {
		e := swfreq.New(n, eps, v)
		st := minibatch.Drive(minibatch.Func(e.ProcessBatch), stream, batch)
		t.add(v.String(), fmt.Sprintf("%.1f", st.NsPerItem()), e.SpaceWords(), e.NumCounters())
	}
	lt := baseline.NewLTSliding(n, eps)
	st := minibatch.Drive(minibatch.Func(lt.ProcessBatch), stream, batch)
	t.add("seq lee-ting [LT06b]", fmt.Sprintf("%.1f", st.NsPerItem()), lt.SpaceWords(), lt.Size())
	t.print()
	fmt.Println("shape check: basic space >> pruned variants; work-efficient fastest per item")
}

// ---------------------------------------------------------------- E6 --

func runE6() {
	const streamLen = 1 << 20
	const batch = 1 << 14
	t := newTable("eps", "delta", "d x w", "ns/item", "space words", "frac > eps*m")
	for _, eps := range []float64{1e-3, 1e-4} {
		for _, delta := range []float64{1.0 / 16, 1.0 / 256, 1.0 / 4096} {
			s := cms.New(eps, delta, 11)
			stream := workload.Zipf(9, streamLen, 1.2, 1<<18)
			st := minibatch.Drive(minibatch.Func(s.ProcessBatch), stream, batch)
			exact := make(map[uint64]int64)
			for _, it := range stream {
				exact[it]++
			}
			bad := 0
			for it, fe := range exact {
				if float64(s.Query(it)-fe) > eps*float64(streamLen) {
					bad++
				}
			}
			t.add(eps, fmt.Sprintf("%.2e", delta),
				fmt.Sprintf("%dx%d", s.Depth(), s.Width()),
				fmt.Sprintf("%.1f", st.NsPerItem()), s.SpaceWords(),
				fmt.Sprintf("%.2e (δ=%.0e)", float64(bad)/float64(len(exact)), delta))
		}
	}
	t.print()
	fmt.Println("shape check: work ~ log(1/δ) per item; violation rate << δ")
}

// ---------------------------------------------------------------- E7 --

func runE7() {
	const batch = 1 << 14
	t := newTable("engine", "N", "ns/item")
	for _, N := range []int{1 << 18, 1 << 20, 1 << 22} {
		stream := workload.Zipf(13, N, 1.1, 1<<18)
		g := mg.New(1e-3)
		st := minibatch.Drive(minibatch.Func(g.ProcessBatch), stream, batch)
		t.add("mg-infinite", N, fmt.Sprintf("%.1f", st.NsPerItem()))
	}
	for _, n := range []int64{1 << 16, 1 << 20, 1 << 24} {
		stream := workload.Zipf(17, 1<<20, 1.1, 1<<18)
		e := swfreq.New(n, 1.0/128, swfreq.WorkEfficient)
		st := minibatch.Drive(minibatch.Func(e.ProcessBatch), stream, batch)
		t.add(fmt.Sprintf("sw-work (window %d)", n), 1<<20, fmt.Sprintf("%.1f", st.NsPerItem()))
	}
	t.print()
	fmt.Println("shape check: ns/item flat in stream length and in window size (work Θ(N))")
}

// ---------------------------------------------------------------- E8 --

func runE8() {
	fmt.Println("guaranteed error bound vs worst measured error (tightness = measured/bound):")
	t := newTable("aggregate", "bound", "worst measured", "tightness")

	// Basic counting.
	{
		n, eps := int64(1<<18), 0.01
		c := bcount.New(n, eps)
		bits := workload.BurstyBits(21, 1<<20, 1<<13, 0.05, 0.9)
		var window []bool
		worst := 0.0
		for _, b := range workload.BitBatches(bits, 1<<14) {
			c.Advance(css.FromBools(b))
			window = append(window, b...)
			if int64(len(window)) > n {
				window = window[int64(len(window))-n:]
			}
			var m int64
			for _, x := range window {
				if x {
					m++
				}
			}
			if m > 0 {
				if r := float64(c.Estimate()-m) / (eps * float64(m)); r > worst {
					worst = r
				}
			}
		}
		t.add("basic counting (4.1)", "eps*m", fmt.Sprintf("%.3f·bound", worst), fmt.Sprintf("%.3f", worst))
	}
	// Sum.
	{
		n, eps, R := int64(1<<16), 0.01, uint64(4095)
		s := wsum.New(n, R, eps)
		vals := workload.Values(23, 1<<19, R, 2)
		var window []uint64
		worst := 0.0
		for _, b := range workload.Batches(vals, 1<<13) {
			s.Advance(b)
			window = append(window, b...)
			if int64(len(window)) > n {
				window = window[int64(len(window))-n:]
			}
		}
		var truth int64
		for _, v := range window {
			truth += int64(v)
		}
		if truth > 0 {
			worst = float64(s.Estimate()-truth) / (eps * float64(truth))
		}
		t.add("sum (4.2)", "eps*sum", fmt.Sprintf("%.3f·bound", worst), fmt.Sprintf("%.3f", worst))
	}
	// Infinite-window MG.
	{
		eps := 1e-3
		g := mg.New(eps)
		stream := workload.Zipf(25, 1<<20, 1.1, 1<<18)
		exact := make(map[uint64]int64)
		for _, b := range workload.Batches(stream, 1<<14) {
			g.ProcessBatch(b)
			for _, it := range b {
				exact[it]++
			}
		}
		worst := 0.0
		bound := eps * float64(g.StreamLen())
		for it, fe := range exact {
			if r := float64(fe-g.Estimate(it)) / bound; r > worst {
				worst = r
			}
		}
		t.add("freq est inf (5.2)", "eps*m", fmt.Sprintf("%.3f·bound", worst), fmt.Sprintf("%.3f", worst))
	}
	// Sliding-window variants.
	for _, v := range []swfreq.Variant{swfreq.Basic, swfreq.SpaceEfficient, swfreq.WorkEfficient} {
		n, eps := int64(1<<14), 0.02
		e := swfreq.New(n, eps, v)
		stream := workload.Zipf(27+int64(v), 1<<18, 1.2, 1<<14)
		var window []uint64
		for _, b := range workload.Batches(stream, 1<<12) {
			e.ProcessBatch(b)
			window = append(window, b...)
			if int64(len(window)) > n {
				window = window[int64(len(window))-n:]
			}
		}
		exact := make(map[uint64]int64)
		for _, it := range window {
			exact[it]++
		}
		worst := 0.0
		bound := eps * float64(n)
		for it, fe := range exact {
			if r := float64(fe-e.Estimate(it)) / bound; r > worst {
				worst = r
			}
		}
		t.add("freq est sw/"+v.String()+" (5.3)", "eps*n",
			fmt.Sprintf("%.3f·bound", worst), fmt.Sprintf("%.3f", worst))
	}
	// Count-min.
	{
		eps, delta := 1e-3, 1e-3
		s := cms.New(eps, delta, 31)
		stream := workload.Zipf(29, 1<<20, 1.2, 1<<18)
		for _, b := range workload.Batches(stream, 1<<14) {
			s.ProcessBatch(b)
		}
		exact := make(map[uint64]int64)
		for _, it := range stream {
			exact[it]++
		}
		worst := 0.0
		bound := eps * float64(s.TotalCount())
		for it, fe := range exact {
			if r := float64(s.Query(it)-fe) / bound; r > worst {
				worst = r
			}
		}
		t.add("count-min (6.1)", "eps*m w.p. 1-δ", fmt.Sprintf("%.3f·bound", worst), fmt.Sprintf("%.3f", worst))
	}
	t.print()
	fmt.Println("shape check: every deterministic tightness <= 1; count-min <= 1 except w.p. δ")
}

// ---------------------------------------------------------------- E9 --

func runE9() {
	const streamLen = 1 << 21
	const batch = 1 << 17
	maxP := runtime.GOMAXPROCS(0)
	var ps []int
	for p := 1; p <= maxP; p *= 2 {
		ps = append(ps, p)
	}
	t := newTable(append([]string{"engine"}, func() []string {
		var h []string
		for _, p := range ps {
			h = append(h, fmt.Sprintf("p=%d Mitem/s", p))
		}
		return h
	}()...)...)

	run := func(name string, mk func() minibatch.Engine) {
		row := []any{name}
		for _, p := range ps {
			parallel.SetWorkers(p)
			e := mk()
			stream := workload.Zipf(37, streamLen, 1.1, 1<<18)
			st := minibatch.Drive(e, stream, batch)
			row = append(row, fmt.Sprintf("%.1f", st.ItemsPerSec()/1e6))
		}
		parallel.SetWorkers(0)
		t.add(row...)
	}
	run("mg-infinite (5.2)", func() minibatch.Engine { return mg.New(1e-3) })
	run("sw-work (5.4)", func() minibatch.Engine { return swfreq.New(1<<20, 1.0/128, swfreq.WorkEfficient) })
	run("count-min (6.1)", func() minibatch.Engine { return cms.New(1e-4, 1e-3, 41) })
	run("bcount (4.1)", func() minibatch.Engine {
		c := bcount.New(1<<20, 0.001)
		return minibatch.Func(func(items []uint64) {
			c.Advance(css.FromFunc(len(items), func(i int) bool { return items[i]&1 == 1 }))
		})
	})
	t.print()
	fmt.Println("shape check: throughput grows with p (low depth); see E1 for the merge bottleneck")
}

// --------------------------------------------------------------- E10 --

func runE10() {
	t := newTable("substrate", "n", "ns/elem")
	for _, n := range []int{1 << 18, 1 << 20, 1 << 22} {
		keys := make([]uint32, n)
		vals := make([]int32, n)
		stream := workload.Uniform(43, n, uint64(4*n))
		for i := range keys {
			keys[i] = uint32(stream[i])
			vals[i] = int32(i)
		}
		start := time.Now()
		parallel.RadixSortPairs(keys, vals, uint32(4*n))
		t.add("intSort (Thm 2.2)", n, fmt.Sprintf("%.2f", float64(time.Since(start).Nanoseconds())/float64(n)))
	}
	for _, n := range []int{1 << 18, 1 << 20, 1 << 22} {
		stream := workload.Zipf(47, n, 1.1, 1<<16)
		start := time.Now()
		_ = hist.Build(stream, 7)
		t.add("buildHist (Thm 2.3)", n, fmt.Sprintf("%.2f", float64(time.Since(start).Nanoseconds())/float64(n)))
	}
	for _, n := range []int{1 << 20, 1 << 22} {
		bits := workload.Bits(51, n, 0.3)
		start := time.Now()
		_ = css.FromBools(bits)
		t.add("CSS build (Lemma 2.1)", n, fmt.Sprintf("%.2f", float64(time.Since(start).Nanoseconds())/float64(n)))
	}
	t.print()
	fmt.Println("shape check: ns/elem flat in n for all three (linear work)")
}
