package cms

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchBatches(nBatches, batchSize int) [][]uint64 {
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<18)
	out := make([][]uint64, nBatches)
	for b := range out {
		out[b] = make([]uint64, batchSize)
		for i := range out[b] {
			out[b][i] = zipf.Uint64()
		}
	}
	return out
}

func BenchmarkProcessBatchVsSequential(b *testing.B) {
	bs := benchBatches(32, 1<<14)
	b.Run("parallel", func(b *testing.B) {
		s := New(1e-4, 1e-3, 3)
		b.SetBytes(1 << 14 * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ProcessBatch(bs[i%len(bs)])
		}
	})
	b.Run("sequential", func(b *testing.B) {
		s := New(1e-4, 1e-3, 3)
		b.SetBytes(1 << 14 * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range bs[i%len(bs)] {
				s.Update(it, 1)
			}
		}
	})
}

func BenchmarkQuery(b *testing.B) {
	for _, d := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			s := NewWithDims(d, 1<<14, 5)
			for _, batch := range benchBatches(8, 1<<14) {
				s.ProcessBatch(batch)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Query(uint64(i % 4096))
			}
		})
	}
}

func BenchmarkRangeCount(b *testing.B) {
	r := NewRange(20, 1e-3, 1e-2, 7)
	for _, batch := range benchBatches(8, 1<<14) {
		r.ProcessBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RangeCount(uint64(i%1000), uint64(i%1000)+1<<15)
	}
}

func BenchmarkCountSketchProcessBatch(b *testing.B) {
	bs := benchBatches(32, 1<<14)
	s := NewCountSketch(0.01, 1e-3, 3)
	b.SetBytes(1 << 14 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProcessBatch(bs[i%len(bs)])
	}
}

func BenchmarkCountSketchQuery(b *testing.B) {
	s := NewCountSketch(0.01, 1e-3, 3)
	for _, batch := range benchBatches(8, 1<<14) {
		s.ProcessBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Query(uint64(i % 4096))
	}
}
