package streamagg_test

import (
	"fmt"

	streamagg "repro"
)

// The basic flow: create an estimator, feed minibatches, query between
// batches.
func ExampleNewFreqEstimator() {
	est, err := streamagg.NewFreqEstimator(0.01)
	if err != nil {
		panic(err)
	}
	est.ProcessBatch([]uint64{1, 1, 1, 2, 2, 3})
	est.ProcessBatch([]uint64{1, 4, 4, 4, 4, 5})
	fmt.Println("item 1:", est.Estimate(1))
	fmt.Println("item 4:", est.Estimate(4))
	// Output:
	// item 1: 4
	// item 4: 4
}

// Sliding-window estimation forgets items that slide out of the window.
func ExampleNewSlidingFreqEstimator() {
	est, err := streamagg.NewSlidingFreqEstimator(4, 0.25)
	if err != nil {
		panic(err)
	}
	est.ProcessBatch([]uint64{7, 7, 7, 7}) // window full of 7s
	fmt.Println("in window:", est.Estimate(7))
	est.ProcessBatch([]uint64{8, 8, 8, 8}) // 7s slide out entirely
	fmt.Println("after sliding out:", est.Estimate(7))
	// Output:
	// in window: 4
	// after sliding out: 0
}

// Basic counting tracks the 1s in a sliding bit window with relative
// error epsilon.
func ExampleNewBasicCounter() {
	c, err := streamagg.NewBasicCounter(8, 0.1)
	if err != nil {
		panic(err)
	}
	c.ProcessBits([]bool{true, true, false, true})
	c.ProcessBits([]bool{false, false, true, false})
	fmt.Println("ones in last 8 bits:", c.Estimate())
	// Output:
	// ones in last 8 bits: 4
}

// String keys are adapted with HashString.
func ExampleHashString() {
	est, _ := streamagg.NewFreqEstimator(0.1)
	words := []string{"go", "go", "stream", "go"}
	ids := make([]uint64, len(words))
	for i, w := range words {
		ids[i] = streamagg.HashString(w)
	}
	est.ProcessBatch(ids)
	fmt.Println(est.Estimate(streamagg.HashString("go")))
	// Output:
	// 3
}

// Checkpoint and restore between minibatches (the discretized-stream
// fault-tolerance pattern).
func ExampleFreqEstimator_MarshalBinary() {
	est, _ := streamagg.NewFreqEstimator(0.1)
	est.ProcessBatch([]uint64{1, 1, 2})
	ckpt, err := est.MarshalBinary()
	if err != nil {
		panic(err)
	}
	restored := &streamagg.FreqEstimator{}
	if err := restored.UnmarshalBinary(ckpt); err != nil {
		panic(err)
	}
	restored.ProcessBatch([]uint64{1})
	fmt.Println(restored.Estimate(1))
	// Output:
	// 3
}
