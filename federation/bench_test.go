package federation

import (
	"fmt"
	"runtime"
	"testing"

	streamagg "repro"
	"repro/internal/workload"
)

// benchPipeline is a small-dimension federation payload: the linear
// kinds, plus Misra–Gries when withMG is set. Small enough that K = 512
// contributions set up in seconds.
func benchPipeline(b *testing.B, withMG bool) *streamagg.Pipeline {
	p := streamagg.NewPipeline()
	add := func(name string, kind streamagg.Kind, opts ...streamagg.Option) {
		if _, err := p.Add(name, kind, opts...); err != nil {
			b.Fatal(err)
		}
	}
	if withMG {
		add("hot", streamagg.KindFreq, streamagg.WithEpsilon(0.01))
	}
	add("cm", streamagg.KindCountMin, streamagg.WithEpsilon(0.01), streamagg.WithSeed(7))
	add("dist", streamagg.KindCountMinRange, streamagg.WithUniverseBits(12),
		streamagg.WithEpsilon(0.05), streamagg.WithDelta(0.05), streamagg.WithSeed(3))
	return p
}

// BenchmarkRootApply measures one full-mode push plus the view rebuild
// it causes, at K nodes that have all pushed once: ms/apply should not
// grow with K for the linear kinds; Misra–Gries adds K merges per view.
// MiB/node is the root's live heap after the K first pushes, less its
// heap before them, over K. K stops at MaxNodes.
func BenchmarkRootApply(b *testing.B) {
	for _, pipe := range []struct {
		name   string
		withMG bool
	}{{"linear", false}, {"with-mg", true}} {
		for _, k := range []int{8, 64, MaxNodes} {
			b.Run(fmt.Sprintf("%s/K=%d", pipe.name, k), func(b *testing.B) {
				edge := benchPipeline(b, pipe.withMG)
				if err := edge.ProcessBatch(workload.Zipf(1, 1<<14, 1.1, 1<<12-1)); err != nil {
					b.Fatal(err)
				}
				payload, err := edge.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				heap := func() float64 {
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					return float64(ms.HeapAlloc)
				}
				before := heap()
				root := NewRoot(benchPipeline(b, pipe.withMG), nil)
				push := func(i int) {
					err := root.Apply(&Envelope{Node: fmt.Sprintf("edge-%03d", i%k), Epoch: 1,
						Seq: uint64(1 + i/k), Mode: ModeFull, Payload: payload})
					if err != nil {
						b.Fatal(err)
					}
					root.View()
				}
				for i := 0; i < k; i++ {
					push(i)
				}
				perNode := (heap() - before) / float64(k) / (1 << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					push(k + i)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/apply")
				b.ReportMetric(perNode, "MiB/node")
			})
		}
	}
}
