// Go benchmarks behind the work and depth rows of THEOREMS.md, one
// family per experiment id (E8, the error experiment, is the TestOracle*
// suite), plus the pipeline-vs-standalone trio. They are measured, not
// asserted. Run:
//
//	go test -run '^$' -bench=. -benchmem
package streamagg

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/css"
	"repro/internal/hist"
	"repro/internal/mg"
	"repro/internal/parallel"
	"repro/internal/swfreq"
	"repro/internal/workload"
	"repro/internal/wsum"
)

const benchBatch = 1 << 14

// batches pre-slices a Zipf stream for ingestion benchmarks.
func benchStream(seed int64, n int) [][]uint64 {
	return workload.Batches(workload.Zipf(seed, n, 1.1, 1<<18), benchBatch)
}

// BenchmarkE1SharedVsIndependent compares minibatch ingestion plus a
// heavy-hitter query for the shared parallel MG vs the independent
// per-processor approach (Figure 1 / §5.4).
func BenchmarkE1SharedVsIndependent(b *testing.B) {
	const eps = 0.001
	bs := benchStream(1, 1<<20)
	b.Run("shared", func(b *testing.B) {
		g := mg.New(eps)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ProcessBatch(bs[i%len(bs)])
			_ = g.HeavyHitters(0.01)
		}
	})
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("independent-p%d", p), func(b *testing.B) {
			g := baseline.NewIndependent(p, int(1/eps)+1)
			b.SetBytes(benchBatch * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ProcessBatch(bs[i%len(bs)])
				_ = g.Query() // merge at query time: the §5.4 bottleneck
			}
		})
	}
}

// BenchmarkE2BasicCounting measures minibatch ingestion for the basic
// counter across window sizes and epsilons (Theorem 4.1), against the
// sequential DGIM baseline.
func BenchmarkE2BasicCounting(b *testing.B) {
	bits := workload.BurstyBits(2, 1<<20, 1<<13, 0.05, 0.9)
	bbs := workload.BitBatches(bits, benchBatch)
	for _, n := range []int64{1 << 16, 1 << 20, 1 << 24} {
		for _, eps := range []float64{0.1, 0.01, 0.001} {
			b.Run(fmt.Sprintf("parallel/n%d-eps%g", n, eps), func(b *testing.B) {
				c := bcount.New(n, eps)
				b.SetBytes(benchBatch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Advance(css.FromBools(bbs[i%len(bbs)]))
				}
			})
		}
	}
	b.Run("seq-dgim/n1048576-eps0.01", func(b *testing.B) {
		c := baseline.NewDGIM(1<<20, 0.01)
		b.SetBytes(benchBatch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ProcessBits(bbs[i%len(bbs)])
		}
	})
}

// BenchmarkE3WindowSum measures minibatch ingestion for the windowed sum
// across value bounds (Theorem 4.2; work ~ log R).
func BenchmarkE3WindowSum(b *testing.B) {
	for _, R := range []uint64{255, 65535} {
		vals := workload.Values(3, 1<<20, R, 2)
		vbs := workload.Batches(vals, benchBatch)
		b.Run(fmt.Sprintf("R%d", R), func(b *testing.B) {
			s := wsum.New(1<<18, R, 0.01)
			b.SetBytes(benchBatch * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Advance(vbs[i%len(vbs)])
			}
		})
	}
}

// BenchmarkE4InfiniteMG measures the infinite-window engine across
// epsilons (Theorem 5.2), with the sequential MG as the work-efficiency
// baseline.
func BenchmarkE4InfiniteMG(b *testing.B) {
	bs := benchStream(4, 1<<20)
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		b.Run(fmt.Sprintf("parallel/eps%g", eps), func(b *testing.B) {
			g := mg.New(eps)
			b.SetBytes(benchBatch * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ProcessBatch(bs[i%len(bs)])
			}
		})
	}
	b.Run("seq-mg/eps0.001", func(b *testing.B) {
		g := baseline.NewMGSeq(1000)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ProcessBatch(bs[i%len(bs)])
		}
	})
	b.Run("seq-spacesaving/eps0.001", func(b *testing.B) {
		g := baseline.NewSpaceSaving(1000)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ProcessBatch(bs[i%len(bs)])
		}
	})
	b.Run("seq-lossy/eps0.001", func(b *testing.B) {
		g := baseline.NewLossyCounting(1000)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ProcessBatch(bs[i%len(bs)])
		}
	})
}

// BenchmarkE5SlidingFreq sets the work-efficient sliding-window
// algorithm (Theorem 5.4) against sequential Lee–Ting.
func BenchmarkE5SlidingFreq(b *testing.B) {
	bs := benchStream(5, 1<<20)
	b.Run("work-efficient", func(b *testing.B) {
		e := swfreq.New(1<<20, 1.0/128)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ProcessBatch(bs[i%len(bs)])
		}
		b.ReportMetric(float64(e.SpaceWords()), "space-words")
	})
	b.Run("seq-lee-ting", func(b *testing.B) {
		g := baseline.NewLTSliding(1<<20, 1.0/128)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ProcessBatch(bs[i%len(bs)])
		}
		b.ReportMetric(float64(g.SpaceWords()), "space-words")
	})
}

// BenchmarkE6CountMin measures parallel sketch ingestion across depths
// (work ~ log(1/δ), Theorem 6.1) against sequential updates.
func BenchmarkE6CountMin(b *testing.B) {
	bs := benchStream(6, 1<<20)
	for _, delta := range []float64{1.0 / 16, 1.0 / 256, 1.0 / 4096} {
		b.Run(fmt.Sprintf("parallel/delta%.0e", delta), func(b *testing.B) {
			s := cms.New(1e-4, delta, 7)
			b.SetBytes(benchBatch * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ProcessBatch(bs[i%len(bs)])
			}
		})
	}
	b.Run("sequential/delta4e-03", func(b *testing.B) {
		s := cms.New(1e-4, 1.0/256, 7)
		b.SetBytes(benchBatch * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range bs[i%len(bs)] {
				s.Update(it, 1)
			}
		}
	})
}

// BenchmarkE7WorkLinearity checks that per-item cost is flat in the
// window size (the work bound does not depend on n).
func BenchmarkE7WorkLinearity(b *testing.B) {
	bs := benchStream(7, 1<<20)
	for _, n := range []int64{1 << 16, 1 << 20, 1 << 24} {
		b.Run(fmt.Sprintf("window%d", n), func(b *testing.B) {
			e := swfreq.New(n, 1.0/128)
			b.SetBytes(benchBatch * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ProcessBatch(bs[i%len(bs)])
			}
		})
	}
}

// BenchmarkE9Scaling sweeps the worker count for each engine, the
// measured side of the polylog-depth claims. Throughput can grow with p
// only up to the host's core count.
func BenchmarkE9Scaling(b *testing.B) {
	bs := workload.Batches(workload.Zipf(9, 1<<20, 1.1, 1<<18), 1<<17)
	engines := map[string]func() func([]uint64){
		"mg":  func() func([]uint64) { g := mg.New(1e-3); return g.ProcessBatch },
		"sw":  func() func([]uint64) { e := swfreq.New(1<<20, 1.0/128); return e.ProcessBatch },
		"cms": func() func([]uint64) { s := cms.New(1e-4, 1e-3, 3); return s.ProcessBatch },
	}
	for name, mk := range engines {
		for _, p := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/p%d", name, p), func(b *testing.B) {
				old := parallel.SetWorkers(p)
				defer parallel.SetWorkers(old)
				f := mk()
				b.SetBytes(1 << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f(bs[i%len(bs)])
				}
			})
		}
	}
}

// BenchmarkE10Substrates measures the parallel building blocks.
func BenchmarkE10Substrates(b *testing.B) {
	const n = 1 << 20
	stream := workload.Uniform(10, n, 4*n)
	b.Run("intSort", func(b *testing.B) {
		keys := make([]uint32, n)
		vals := make([]int32, n)
		b.SetBytes(n * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range keys {
				keys[j] = uint32(stream[j])
				vals[j] = int32(j)
			}
			b.StartTimer()
			parallel.RadixSortPairs(keys, vals, uint32(4*n))
		}
	})
	zs := workload.Zipf(11, n, 1.1, 1<<16)
	b.Run("buildHist", func(b *testing.B) {
		b.SetBytes(n * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = hist.Build(zs, int64(i))
		}
	})
	bits := workload.Bits(12, n, 0.3)
	b.Run("cssBuild", func(b *testing.B) {
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = css.FromBools(bits)
		}
	})
	b.Run("scan", func(b *testing.B) {
		xs := make([]int64, n)
		b.SetBytes(n * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range xs {
				xs[j] = 1
			}
			parallel.ScanExclusive(xs)
		}
	})
}

// demoTrio builds aggserve's default pipeline: hot=freq,eps=0.001;
// sketch=count-min,eps=1e-4,seed=7; dist=count-min-range,bits=20.
func demoTrio(tb testing.TB) *Pipeline {
	tb.Helper()
	p := NewPipeline()
	for _, m := range []struct {
		name string
		kind Kind
		opts []Option
	}{
		{"hot", KindFreq, []Option{WithEpsilon(0.001)}},
		{"sketch", KindCountMin, []Option{WithEpsilon(1e-4), WithSeed(7)}},
		{"dist", KindCountMinRange, []Option{WithUniverseBits(20)}},
	} {
		if _, err := p.Add(m.name, m.kind, m.opts...); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkPipelineTrio shows what sharing the minibatch histogram
// saves: the demo trio fed 32768-key zipf batches through
// Pipeline.ProcessBatch (one histogram, fanned out) against the same
// three aggregates fed one after another, each building its own.
func BenchmarkPipelineTrio(b *testing.B) {
	const batch = 1 << 15
	bs := workload.Batches(workload.Zipf(91, 1<<21, 1.1, 1<<18), batch)
	run := func(b *testing.B, process func(items []uint64) error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := process(bs[i%len(bs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/item")
	}
	b.Run("pipeline", func(b *testing.B) {
		run(b, demoTrio(b).ProcessBatch)
	})
	b.Run("members-standalone", func(b *testing.B) {
		p := demoTrio(b)
		var aggs []Aggregate
		for _, name := range p.Names() {
			agg, _ := p.Get(name)
			aggs = append(aggs, agg)
		}
		run(b, func(items []uint64) error {
			for _, agg := range aggs {
				if err := agg.ProcessBatch(items); err != nil {
					return err
				}
			}
			return nil
		})
	})
}
