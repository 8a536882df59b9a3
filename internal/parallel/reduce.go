package parallel

// Number is the constraint for arithmetic reductions and scans.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64
}

// Reduce combines leaf results over [0, n) using an associative combine
// with identity id. leaf(lo, hi) must compute the reduction of the range
// sequentially; combine must be associative with id as identity.
func Reduce[T any](n, grain int, id T, combine func(a, b T) T, leaf func(lo, hi int) T) T {
	if n <= 0 {
		return id
	}
	chunks := splitCount(n, grain)
	if chunks == 1 {
		return combine(id, leaf(0, n))
	}
	partial := make([]T, chunks)
	chunked(n, chunks, func(c, lo, hi int) {
		partial[c] = leaf(lo, hi)
	})
	out := id
	for _, p := range partial {
		out = combine(out, p)
	}
	return out
}

// Count returns the number of indices i in [0, n) for which pred(i) holds.
func Count(n int, pred func(i int) bool) int {
	return Reduce(n, DefaultGrain, 0,
		func(a, b int) int { return a + b },
		func(lo, hi int) int {
			c := 0
			for i := lo; i < hi; i++ {
				if pred(i) {
					c++
				}
			}
			return c
		})
}
