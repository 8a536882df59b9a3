package parallel

// PackIndices returns, in increasing order, every index i in [0, n) for
// which keep(i) reports true. It uses the standard flag/prefix-sum
// compaction: O(n) work and polylog span.
func PackIndices(n int, keep func(i int) bool) []int {
	if n == 0 {
		return nil
	}
	flags := make([]int, n)
	ForGrain(n, DefaultGrain, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := ScanExclusive(flags)
	out := make([]int, total)
	ForGrain(n, DefaultGrain, func(i int) {
		// flags now holds the exclusive prefix sum; index i was kept iff
		// the sum increases at i.
		pos := flags[i]
		next := total
		if i+1 < n {
			next = flags[i+1]
		}
		if next > pos {
			out[pos] = i
		}
	})
	return out
}

// Pack returns the elements xs[i] for which keep(i) is true, preserving
// order.
func Pack[T any](xs []T, keep func(i int) bool) []T {
	idx := PackIndices(len(xs), keep)
	out := make([]T, len(idx))
	ForGrain(len(idx), DefaultGrain, func(j int) {
		out[j] = xs[idx[j]]
	})
	return out
}

// Map applies f to each index in [0, n) and collects the results.
func Map[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	ForGrain(n, DefaultGrain, func(i int) {
		out[i] = f(i)
	})
	return out
}
