package swfreq

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchBatches(nBatches, batchSize int, universe uint64) [][]uint64 {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, universe)
	out := make([][]uint64, nBatches)
	for b := range out {
		out[b] = make([]uint64, batchSize)
		for i := range out[b] {
			out[b][i] = zipf.Uint64()
		}
	}
	return out
}

func BenchmarkProcessBatch(b *testing.B) {
	bs := benchBatches(64, 1<<14, 1<<18)
	e := New(1<<20, 1.0/128)
	b.SetBytes(1 << 14 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessBatch(bs[i%len(bs)])
	}
}

func BenchmarkSift(b *testing.B) {
	for _, nK := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("K%d", nK), func(b *testing.B) {
			mu := 1 << 16
			rng := rand.New(rand.NewSource(int64(nK)))
			items := make([]uint64, mu)
			for i := range items {
				items[i] = rng.Uint64() % uint64(4*nK)
			}
			kIndex := make(map[uint64]int32, nK)
			for k := 0; k < nK; k++ {
				kIndex[uint64(k)] = int32(k)
			}
			b.SetBytes(int64(mu) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sift(items, kIndex, nK)
			}
		})
	}
}

func BenchmarkEstimate(b *testing.B) {
	e := New(1<<16, 0.01)
	bs := benchBatches(16, 1<<13, 1<<14)
	for _, batch := range bs {
		e.ProcessBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Estimate(uint64(i % 1000))
	}
}
