package parallel

// This file implements the role of Theorem 2.2 (parallel integer sort): a
// stable, linear-work sort for integer keys from a bounded range, realized
// as a parallel LSD radix sort whose per-digit pass is a stable parallel
// counting sort. Stability matters: the sift routine (Lemma 5.9) relies on
// it to keep stream positions in order.

const radixBits = 8
const radixSize = 1 << radixBits // buckets per digit pass

// CountingSortPairs stably sorts the parallel arrays (keys, vals) by key.
// All keys must be < keyRange. It is a single-pass stable counting sort
// with per-chunk histograms: O(n + p*keyRange) work, O(n/p + keyRange)
// span. Use RadixSortPairs when keyRange is large.
func CountingSortPairs(keys []uint32, vals []int32, keyRange int) {
	n := len(keys)
	if n != len(vals) {
		panic("parallel: CountingSortPairs length mismatch")
	}
	if n <= 1 || keyRange <= 1 {
		return
	}
	dstK := make([]uint32, n)
	dstV := make([]int32, n)
	countingPass(keys, vals, dstK, dstV, keyRange, func(k uint32) uint32 { return k })
	copy(keys, dstK)
	copy(vals, dstV)
}

// countingPass stably scatters (srcK, srcV) into (dstK, dstV) ordered by
// digit(srcK[i]), which must be < k.
func countingPass(srcK []uint32, srcV []int32, dstK []uint32, dstV []int32, k int, digit func(uint32) uint32) {
	n := len(srcK)
	chunks := splitCount(n, DefaultGrain)
	// counts[c*k+d] = number of keys with digit d in chunk c.
	counts := make([]int32, chunks*k)
	chunked(n, chunks, func(c, lo, hi int) {
		row := counts[c*k : (c+1)*k]
		for _, key := range srcK[lo:hi] {
			row[digit(key)]++
		}
	})
	// Column-major exclusive scan: for stability, all of digit d in chunk 0
	// precedes digit d in chunk 1, etc., and digit d precedes digit d+1.
	var total int32
	for d := 0; d < k; d++ {
		for c := 0; c < chunks; c++ {
			i := c*k + d
			v := counts[i]
			counts[i] = total
			total += v
		}
	}
	chunked(n, chunks, func(c, lo, hi int) {
		row := counts[c*k : (c+1)*k]
		for i := lo; i < hi; i++ {
			d := digit(srcK[i])
			pos := row[d]
			row[d]++
			dstK[pos] = srcK[i]
			dstV[pos] = srcV[i]
		}
	})
}

// RadixSortPairs stably sorts the parallel arrays (keys, vals) by key
// using LSD radix passes of radixBits bits. All keys must be < keyRange.
// O(n * ceil(log keyRange / 8)) work — linear for keyRange polynomial in n.
func RadixSortPairs(keys []uint32, vals []int32, keyRange uint32) {
	n := len(keys)
	if n != len(vals) {
		panic("parallel: RadixSortPairs length mismatch")
	}
	if n <= 1 || keyRange <= 1 {
		return
	}
	passes := 0
	for r := uint64(keyRange) - 1; r > 0; r >>= radixBits {
		passes++
	}
	if passes*radixSize > 2*n && keyRange <= uint32(4*n)+4 {
		// Small inputs: a single counting pass over the whole range is
		// cheaper than multiple digit passes.
		CountingSortPairs(keys, vals, int(keyRange))
		return
	}
	tmpK := make([]uint32, n)
	tmpV := make([]int32, n)
	srcK, srcV, dstK, dstV := keys, vals, tmpK, tmpV
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		countingPass(srcK, srcV, dstK, dstV, radixSize, func(k uint32) uint32 {
			return (k >> shift) & (radixSize - 1)
		})
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	if passes%2 == 1 {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}
