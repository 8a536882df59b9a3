// netmon: network-monitoring scenario from the paper's introduction
// ([EV03]: "focusing on the elephants") — track heavy-hitter flows over a
// sliding window of the most recent packets, on a synthetic packet trace
// with Zipf-distributed flow sizes and a mid-trace hot-flow burst
// (simulating a DDoS-like event the window must catch and then forget).
package main

import (
	"fmt"
	"log"

	streamagg "repro"
	"repro/internal/workload"
)

const (
	windowPkts = 1 << 16 // sliding window: last 64k packets
	batchSize  = 4096
	nFlows     = 1 << 20
	epsilon    = 0.005
	phi        = 0.03 // report flows above 3% of window traffic
)

func main() {
	a, err := streamagg.New(streamagg.KindSlidingFreq,
		streamagg.WithWindow(windowPkts),
		streamagg.WithEpsilon(epsilon))
	if err != nil {
		log.Fatal(err)
	}
	sw := a.(*streamagg.SlidingFreqEstimator)

	// Phase 1: steady Zipf traffic. Phase 2: flow 0xBAD floods 30% of
	// packets. Phase 3: steady traffic again — the flood must age out.
	steady1 := workload.Flows(1, 1<<18, nFlows, 1.1)
	flood := workload.HeavyMix(2, 1<<17, []uint64{0xBAD}, []float64{0.3}, nFlows)
	steady2 := workload.Flows(3, 1<<18, nFlows, 1.1)

	report := func(phase string) {
		hh := sw.HeavyHitters(phi)
		fmt.Printf("%-22s %d heavy flows (phi=%.0f%% of %d-packet window):\n",
			phase, len(hh), phi*100, windowPkts)
		for i, ic := range hh {
			if i == 5 {
				fmt.Printf("  ... and %d more\n", len(hh)-5)
				break
			}
			fmt.Printf("  flow %#-8x est. %6d pkts (%.1f%%)\n",
				ic.Item, ic.Count, 100*float64(ic.Count)/float64(windowPkts))
		}
	}

	for _, b := range workload.Batches(steady1, batchSize) {
		sw.ProcessBatch(b)
	}
	report("after steady phase 1:")

	for _, b := range workload.Batches(flood, batchSize) {
		sw.ProcessBatch(b)
	}
	report("during flood:")
	if est := sw.Estimate(0xBAD); est == 0 {
		log.Fatal("flood flow not detected")
	}

	for _, b := range workload.Batches(steady2, batchSize) {
		sw.ProcessBatch(b)
	}
	report("after flood aged out:")
	fmt.Printf("\nflood flow residual estimate: %d pkts (should be 0 — slid out of window)\n",
		sw.Estimate(0xBAD))
	fmt.Printf("tracked flows: %d (bounded by O(1/epsilon)=%d despite %d distinct flows)\n",
		sw.TrackedItems(), int(8/epsilon)+1, nFlows)
}
