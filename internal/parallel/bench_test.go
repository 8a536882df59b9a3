package parallel

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkForGrain(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 18} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			xs := make([]int64, n)
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				ForGrain(n, DefaultGrain, func(j int) { xs[j]++ })
			}
		})
	}
}

func BenchmarkScanExclusive(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			xs := make([]int64, n)
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				for j := range xs {
					xs[j] = 1
				}
				ScanExclusive(xs)
			}
		})
	}
}

func BenchmarkPackIndices(b *testing.B) {
	n := 1 << 20
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		_ = PackIndices(n, func(j int) bool { return j%3 == 0 })
	}
}

func BenchmarkRadixSortPairs(b *testing.B) {
	for _, keyRange := range []uint32{1 << 8, 1 << 16, 1 << 24} {
		b.Run(fmt.Sprintf("range%d", keyRange), func(b *testing.B) {
			n := 1 << 18
			rng := rand.New(rand.NewSource(1))
			keys := make([]uint32, n)
			vals := make([]int32, n)
			src := make([]uint32, n)
			for i := range src {
				src[i] = uint32(rng.Int63()) % keyRange
			}
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(keys, src)
				for j := range vals {
					vals[j] = int32(j)
				}
				b.StartTimer()
				RadixSortPairs(keys, vals, keyRange)
			}
		})
	}
}

func BenchmarkSelectKth(b *testing.B) {
	n := 1 << 18
	rng := rand.New(rand.NewSource(2))
	src := make([]int64, n)
	for i := range src {
		src[i] = rng.Int63()
	}
	xs := make([]int64, n)
	b.SetBytes(int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(xs, src)
		b.StartTimer()
		_ = SelectKth(xs, n/2)
	}
}
