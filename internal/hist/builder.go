package hist

import (
	"repro/internal/hashfn"
)

// maxTableItems bounds the batch size the Builder handles with its
// resident hash table; beyond it the table's footprint (2 slots/item,
// 16 bytes/slot, persisting between batches) stops being worth the
// saved allocations and Build's transient parallel path wins anyway.
const maxTableItems = 1 << 17

// Builder is the reusable, allocation-free production counterpart of
// Build: an open-addressing hash-table histogram whose table, occupancy
// list, and output buffer persist between batches. Build keeps the
// sort-based CRCW-combining simulation of Theorem 2.3 for the paper's
// depth bound; Builder trades that polylog depth for a compact pass that
// touches ~2 cache lines per item and allocates nothing in steady state
// — the better trade at serving batch sizes, where the batcher's single
// flush worker is the caller and the sketch rows below it provide the
// parallelism. Batches beyond maxTableItems fall back to Build.
//
// A Builder is owned by one sketch or one Pipeline and used under its
// write gate; it is not safe for concurrent use. The zero value is ready
// and allocates nothing until its first batch.
type Builder struct {
	item []uint64 // open-addressing table: key slots
	freq []int64  // parallel counts; freq[j] == 0 means slot j is empty
	used []int32  // occupied slot indices, in insertion order
	out  []Entry  // reused output buffer
}

// Build computes the histogram of items, reusing the Builder's internal
// buffers; the returned slice is valid until the next call. The seed
// salts the table hash per batch (any seed yields a correct histogram —
// as in Build, hashing only affects performance).
func (b *Builder) Build(items []uint64, seed int64) []Entry {
	mu := len(items)
	if mu == 0 {
		return nil
	}
	if mu > maxTableItems {
		return Build(items, seed)
	}
	// Table size: next power of two >= 2µ, so load factor <= 1/2.
	size := 2
	for size < 2*mu {
		size <<= 1
	}
	if cap(b.item) < size {
		b.item = make([]uint64, size)
		b.freq = make([]int64, size)
	}
	table, freq := b.item[:size], b.freq[:size]
	used := b.used[:0]
	mask := uint64(size - 1)
	salt := hashfn.Mix64(uint64(seed) ^ 0x68697374)
	for _, x := range items {
		j := hashfn.Mix64(x^salt) & mask
		for {
			if freq[j] == 0 {
				table[j] = x
				freq[j] = 1
				used = append(used, int32(j))
				break
			}
			if table[j] == x {
				freq[j]++
				break
			}
			j = (j + 1) & mask
		}
	}
	out := b.out[:0]
	for _, j := range used {
		out = append(out, Entry{Item: table[j], Freq: freq[j]})
		freq[j] = 0 // clear only the touched slots for the next batch
	}
	b.used, b.out = used[:0], out
	return out
}
