package parallel

import (
	"fmt"
	"testing"
)

// BenchmarkGrainAblation quantifies the fork-grain design choice:
// too-small grains drown in goroutine overhead,
// too-large grains forfeit parallelism. DefaultGrain sits on the
// plateau.
func BenchmarkGrainAblation(b *testing.B) {
	const n = 1 << 20
	xs := make([]int64, n)
	for _, grain := range []int{16, 256, DefaultGrain, 1 << 16, n} {
		b.Run(fmt.Sprintf("grain%d", grain), func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				ForGrain(n, grain, func(j int) { xs[j]++ })
			}
		})
	}
}

// BenchmarkWorkersAblation shows the same loop under different worker
// counts (the knob the speedup experiment E9 sweeps).
func BenchmarkWorkersAblation(b *testing.B) {
	const n = 1 << 20
	xs := make([]int64, n)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			old := SetWorkers(p)
			defer SetWorkers(old)
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				ForGrain(n, DefaultGrain, func(j int) { xs[j] += 2 })
			}
		})
	}
}
