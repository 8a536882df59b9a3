// Quickstart: a 60-second tour of the streamagg public API — a Pipeline
// fanning each minibatch out to the three frequency aggregates through
// one keyed query surface, plus standalone windowed aggregates built
// with the same functional-options constructor.
package main

import (
	"fmt"
	"log"
	"math/rand"

	streamagg "repro"
)

func main() {
	const (
		window    = 10_000 // sliding-window size (items / bits)
		batchSize = 1_000
		batches   = 50
		epsilon   = 0.01
	)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<16)

	// One pipeline, three aggregates over the same item stream: each
	// minibatch fans out concurrently, queries go through names.
	pipe := streamagg.NewPipeline()
	mustAdd := func(name string, kind streamagg.Kind, opts ...streamagg.Option) {
		if _, err := pipe.Add(name, kind, opts...); err != nil {
			log.Fatal(err)
		}
	}
	// Infinite-window frequency estimation (parallel Misra-Gries).
	mustAdd("trending", streamagg.KindFreq, streamagg.WithEpsilon(epsilon))
	// Sliding-window frequency estimation (the work-efficient algorithm).
	mustAdd("recent", streamagg.KindSlidingFreq,
		streamagg.WithWindow(window),
		streamagg.WithEpsilon(epsilon))
	// Count-min sketch for point queries.
	mustAdd("sketch", streamagg.KindCountMin,
		streamagg.WithEpsilon(0.001), streamagg.WithDelta(0.01), streamagg.WithSeed(7))

	// Windowed aggregates over derived streams, built with the same
	// options API: a bit stream ("is this item the hottest item 0?") and
	// a bounded value stream (synthetic "bytes per packet").
	a, err := streamagg.New(streamagg.KindBasicCounter,
		streamagg.WithWindow(window), streamagg.WithEpsilon(epsilon))
	if err != nil {
		log.Fatal(err)
	}
	bc := a.(*streamagg.BasicCounter)
	a, err = streamagg.New(streamagg.KindWindowSum,
		streamagg.WithWindow(window), streamagg.WithMaxValue(1500), streamagg.WithEpsilon(epsilon))
	if err != nil {
		log.Fatal(err)
	}
	ws := a.(*streamagg.WindowSum)

	for b := 0; b < batches; b++ {
		items := make([]uint64, batchSize)
		bits := make([]bool, batchSize)
		sizes := make([]uint64, batchSize)
		for i := range items {
			items[i] = zipf.Uint64()
			bits[i] = items[i] == 0
			sizes[i] = 40 + uint64(rng.Intn(1460))
		}
		if err := pipe.ProcessBatch(items); err != nil {
			log.Fatal(err)
		}
		bc.ProcessBits(bits)
		if err := ws.ProcessBatch(sizes); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("stream length: %d items across %d minibatches into %d pipeline aggregates %v\n\n",
		pipe.StreamLen(), batches, pipe.Len(), pipe.Names())

	fmt.Println("top-5 items over the whole stream (Misra-Gries):")
	top, err := pipe.TopK("trending", 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, ic := range top {
		fmt.Printf("  item %-6d est. count %d\n", ic.Item, ic.Count)
	}

	fmt.Printf("\nheavy hitters (phi=0.05) in the last %d items:\n", window)
	hh, err := pipe.HeavyHitters("recent", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	for _, ic := range hh {
		fmt.Printf("  item %-6d est. window count %d\n", ic.Item, ic.Count)
	}

	cm0, err := pipe.Estimate("sketch", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncount-min point query for item 0: %d\n", cm0)

	fmt.Printf("occurrences of item 0 in the last %d items (basic counting): %d\n",
		window, bc.Estimate())
	fmt.Printf("sum of packet sizes over the last %d packets: %d bytes (~%.0f avg)\n",
		window, ws.Estimate(), float64(ws.Estimate())/float64(window))

	fmt.Printf("\nspace: pipeline=%d, basic=%d, sum=%d words\n",
		pipe.SpaceWords(), bc.SpaceWords(), ws.SpaceWords())
}
