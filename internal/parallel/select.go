package parallel

// Rank selection (the "variant of quickselect" used by Lemma 5.3 and the
// predict step of Theorem 5.4 to find the pruning cutoff): expected linear
// work, polylog span via parallel three-way partitioning.

// selectRNG is a small deterministic splitmix64 state for pivot choice.
// Pivot quality only affects performance, never correctness, so a package
// level generator guarded by atomic update is unnecessary; each call seeds
// from the input length and first element for reproducibility.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SelectKth returns the k-th smallest element of xs (k is 0-based). It may
// permute xs. Panics if k is out of range.
func SelectKth(xs []int64, k int) int64 {
	if k < 0 || k >= len(xs) {
		panic("parallel: SelectKth rank out of range")
	}
	rng := splitmix64{s: uint64(len(xs))*0x9e3779b9 + uint64(xs[0])}
	for {
		n := len(xs)
		if n <= 2048 {
			return SelectKthSeq(xs, k)
		}
		pivot := xs[rng.next()%uint64(n)]
		// Three-way parallel partition by counting then packing.
		var less, equal int
		Do(
			func() { less = Count(n, func(i int) bool { return xs[i] < pivot }) },
			func() { equal = Count(n, func(i int) bool { return xs[i] == pivot }) },
		)
		switch {
		case k < less:
			xs = Pack(xs, func(i int) bool { return xs[i] < pivot })
		case k < less+equal:
			return pivot
		default:
			xs = Pack(xs, func(i int) bool { return xs[i] > pivot })
			k -= less + equal
		}
	}
}

// SelectKthSeq is SelectKth as an in-place sequential quickselect: no
// forks and no allocation. SelectKth finishes with it on small ranges;
// callers on an allocation-free path use it directly.
//
//agglint:hotpath
func SelectKthSeq(xs []int64, k int) int64 {
	if k < 0 || k >= len(xs) {
		panic("parallel: SelectKthSeq rank out of range")
	}
	lo, hi := 0, len(xs)-1
	rng := splitmix64{s: uint64(len(xs)) ^ 0xabcdef}
	for {
		if lo == hi {
			return xs[lo]
		}
		p := xs[lo+int(rng.next()%uint64(hi-lo+1))]
		i, j, m := lo, hi, lo
		// Dutch-flag partition around p.
		for m <= j {
			switch {
			case xs[m] < p:
				xs[i], xs[m] = xs[m], xs[i]
				i++
				m++
			case xs[m] > p:
				xs[m], xs[j] = xs[j], xs[m]
				j--
			default:
				m++
			}
		}
		switch {
		case k < i:
			hi = i - 1
		case k > j:
			lo = j + 1
		default:
			return p
		}
	}
}

// KthLargest returns the k-th largest element of xs (1-based: k=1 is the
// maximum). It may permute xs. Panics if k is out of [1, len(xs)].
func KthLargest(xs []int64, k int) int64 {
	if k < 1 || k > len(xs) {
		panic("parallel: KthLargest rank out of range")
	}
	return SelectKth(xs, len(xs)-k)
}
