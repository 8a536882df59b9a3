// Package parallel provides fork-join parallel primitives in the spirit of
// the work-depth model used by the paper: parallel for, reduction, prefix
// sums (scan), packing/filtering, stable integer sorting, and rank
// selection. All primitives perform work proportional to their sequential
// counterparts and realize low depth as a shallow fork-join DAG over a
// bounded number of goroutines.
//
// The number of workers defaults to runtime.GOMAXPROCS(0) and can be
// overridden with SetWorkers, which the benchmark harness uses to measure
// speedup curves.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers holds the configured worker count; 0 means "use GOMAXPROCS".
var workers atomic.Int64

// Workers reports the number of workers parallel primitives will use.
func Workers() int {
	if p := int(workers.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count used by all primitives in this
// package. p <= 0 restores the default (GOMAXPROCS). It returns the
// previous setting. It is safe for concurrent use, but callers that change
// it mid-computation get an unspecified mix of old and new parallelism.
func SetWorkers(p int) int {
	old := int(workers.Swap(int64(p)))
	return old
}

// DefaultGrain is the smallest amount of per-goroutine work worth forking
// for. Loop bodies cheaper than a few nanoseconds per element should use a
// larger grain via Blocks.
const DefaultGrain = 1 << 11

// MinFork is the smallest total amount of work (loop-body units of a few
// nanoseconds, summed over all iterations) worth a fork-join at all:
// below it, starting and waking even two goroutines costs more than the
// loop. Callers whose iteration count alone does not say how much work a
// loop holds (a handful of rows, each over a short histogram) compare
// against it and run inline.
const MinFork = 1 << 14

// splitCount returns how many chunks to split n units of work into, given a
// minimum grain per chunk.
func splitCount(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if p := Workers(); chunks > p {
		chunks = p
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// Blocks partitions [0, n) into contiguous blocks of at least grain
// elements and runs f(lo, hi) on each block in parallel. f must be safe to
// call concurrently on disjoint ranges. Blocks runs f inline when the work
// does not warrant forking.
func Blocks(n, grain int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := splitCount(n, grain)
	if chunks == 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// chunked splits [0, n) into exactly chunks contiguous ranges and runs
// f(c, lo, hi) on each, where c is the chunk index. chunks must be >= 1.
func chunked(n, chunks int, f func(c, lo, hi int)) {
	if chunks == 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func(c int) {
			defer wg.Done()
			f(c, c*n/chunks, (c+1)*n/chunks)
		}(c)
	}
	f(0, 0, n/chunks)
	wg.Wait()
}

// ForGrain runs f(i) for every i in [0, n) in parallel, forking only when
// chunks of at least grain iterations are available.
func ForGrain(n, grain int, f func(i int)) {
	Blocks(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// Do runs the given thunks in parallel and waits for all of them. It is the
// basic fork-join "spawn; sync" construct.
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, fn := range fns[1:] {
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	fns[0]()
	wg.Wait()
}
