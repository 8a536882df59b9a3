package parallel

// ScanExclusive replaces xs with its exclusive prefix sum and returns the
// total. That is, on return xs[i] holds the sum of the original
// xs[0..i-1], and the returned value is the sum of all original elements.
// The classic two-pass block algorithm: per-block sums, sequential scan of
// the (few) block sums, then per-block local scans. O(n) work, O(n/p + p)
// span.
func ScanExclusive[T Number](xs []T) T {
	n := len(xs)
	if n == 0 {
		return 0
	}
	chunks := splitCount(n, DefaultGrain)
	if chunks == 1 {
		var run T
		for i := 0; i < n; i++ {
			v := xs[i]
			xs[i] = run
			run += v
		}
		return run
	}
	sums := make([]T, chunks)
	chunked(n, chunks, func(c, lo, hi int) {
		var s T
		for _, v := range xs[lo:hi] {
			s += v
		}
		sums[c] = s
	})
	var total T
	for c := 0; c < chunks; c++ {
		s := sums[c]
		sums[c] = total
		total += s
	}
	chunked(n, chunks, func(c, lo, hi int) {
		run := sums[c]
		for i := lo; i < hi; i++ {
			v := xs[i]
			xs[i] = run
			run += v
		}
	})
	return total
}
