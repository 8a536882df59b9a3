package streamagg

import (
	"testing"
	"time"
)

// BenchmarkIngestorPut measures the single-update hot path (the
// per-item enqueue cost a serving handler pays).
func BenchmarkIngestorPut(b *testing.B) {
	for _, policy := range []Backpressure{BackpressureBlock, BackpressureDrop} {
		b.Run(policy.String(), func(b *testing.B) {
			agg, err := New(KindCountMin, WithEpsilon(1e-3), WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			in, err := NewIngestor(agg,
				WithBatchSize(8192), WithMaxLatency(time.Millisecond),
				WithBackpressure(policy))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Put(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := in.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
