package hist

import "math/bits"

// The dyadic roll-up: a stack of summaries over item, item>>1, item>>2, …
// needs the minibatch's histogram at every level, and level l+1's is
// level l's with each item halved and the (at most two) entries that
// land on one item added up. With the histogram sorted by item once,
// every level is a linear pass that merges equal neighbours, so the whole
// stack costs one sort plus Σ_l D_l sequential steps for D_l distinct
// items at level l — against rebuilding a histogram of the µ raw items
// per level.

// radixBits is the widest digit SortByItem sorts by: 2^11 counters stay
// in L1 next to the entries being scattered.
const radixBits = 11

// SortByItem sorts the histogram src by increasing item into scratch
// (least-significant-digit radix sort over the bits the items actually
// use, so a 2^18-key batch takes two passes and 63-bit keys six). src is
// only read. a and b are the caller's reusable buffers, contents
// ignored; the sorted histogram is returned in one of them (grown if
// needed) together with the other, ready to be Halve's destination.
//
//agglint:hotpath
func SortByItem(src, a, b []Entry) (sorted, spare []Entry) {
	n := len(src)
	if cap(a) < n {
		a = make([]Entry, n)
	}
	if cap(b) < n {
		b = make([]Entry, n)
	}
	a, b = a[:n], b[:n]
	var used uint64
	for _, e := range src {
		used |= e.Item
	}
	sig := bits.Len64(used)
	passes := (sig + radixBits - 1) / radixBits
	if passes == 0 {
		copy(a, src) // every item is 0 (so n <= 1): nothing to order
		return a, b
	}
	width := uint((sig + passes - 1) / passes)
	mask := uint64(1)<<width - 1
	var start [1 << radixBits]int32
	from, to := src, a
	for shift := uint(0); shift < uint(sig); shift += width {
		clear(start[:])
		for _, e := range from {
			start[(e.Item>>shift)&mask]++
		}
		pos := int32(0)
		for d, c := range start[:mask+1] {
			start[d], pos = pos, pos+c
		}
		for _, e := range from {
			d := (e.Item >> shift) & mask
			to[start[d]] = e
			start[d]++
		}
		if shift == 0 {
			from, to = a, b
		} else {
			from, to = to, from
		}
	}
	return from, to
}

// Halve appends to dst the next dyadic level of the item-sorted histogram
// src: every item shifted right one bit, equal neighbours merged. The
// result is again sorted by item. src is only read; dst must not alias
// it.
//
//agglint:hotpath
func Halve(dst, src []Entry) []Entry {
	for _, e := range src {
		x := e.Item >> 1
		if n := len(dst); n > 0 && dst[n-1].Item == x {
			dst[n-1].Freq += e.Freq
		} else {
			dst = append(dst, Entry{Item: x, Freq: e.Freq})
		}
	}
	return dst
}
