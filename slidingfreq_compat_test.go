package streamagg

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// Sliding-freq checkpoints from the releases that shipped three
// sliding-window algorithms. testdata/parent_sliding_{work,space,basic}.ckpt
// were written by commit fa0fa7e: a Pipeline whose one member "recent"
// was New(KindSlidingFreq, WithWindow(4096), WithEpsilon(0.05)) plus
// that commit's option selecting the work-efficient, space-efficient or
// basic algorithm, fed slidingFixtureStream() in batches of 1 024, then
// MarshalBinary.
const (
	slidingFixtureWindow = 4096
	slidingFixtureEps    = 0.05
)

func slidingFixtureStream() []uint64 {
	return workload.Zipf(46, 3*slidingFixtureWindow, 1.2, 1<<9)
}

// TestParentSlidingFreqCheckpoints: a work-efficient checkpoint restores
// as it was written, and a space-efficient one restores as the
// work-efficient estimator, which has the same counter capacity and
// block size. Both keep f − εn ≤ est ≤ f over 30 more batches. A basic
// checkpoint, whose counters have another block size and are never
// retired, is refused with an error naming the variant, and the refusal
// leaves the pipeline it was restored onto as it was.
func TestParentSlidingFreqCheckpoints(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, variant := range []string{"work", "space"} {
		t.Run(variant, func(t *testing.T) {
			p, err := UnmarshalPipeline(read("parent_sliding_" + variant + ".ckpt"))
			if err != nil {
				t.Fatalf("checkpoint does not restore: %v", err)
			}
			agg, ok := p.Get("recent")
			if !ok {
				t.Fatal("restored pipeline has no member recent")
			}
			s := agg.(*SlidingFreqEstimator)
			stream := slidingFixtureStream()
			const bound = slidingFixtureEps * slidingFixtureWindow // εn
			check := func(stage string) {
				t.Helper()
				if s.StreamLen() != int64(len(stream)) {
					t.Fatalf("%s: StreamLen %d, want %d", stage, s.StreamLen(), len(stream))
				}
				window := exactCounts(stream[len(stream)-slidingFixtureWindow:])
				window[1<<40] = 0 // an item never seen
				for item, f := range window {
					if est := s.Estimate(item); est > f || float64(f-est) > bound {
						t.Fatalf("%s: item %d: estimate %d outside [%d - %g, %d]", stage, item, est, f, bound, f)
					}
				}
			}
			check("restored")
			for i, b := range workload.Batches(workload.Zipf(47, 30*1024, 1.2, 1<<9), 1024) {
				if err := p.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
				stream = append(stream, b...)
				check(fmt.Sprintf("restored + %d batches", i+1))
			}

			for _, restore := range []func([]byte) error{
				func(data []byte) error { _, err := UnmarshalPipeline(data); return err },
				func(data []byte) error { return p.UnmarshalBinary(data) },
			} {
				err := restore(read("parent_sliding_basic.ckpt"))
				if err == nil || !strings.Contains(err.Error(), "basic") {
					t.Fatalf("basic checkpoint: err = %v, want a refusal naming the variant", err)
				}
			}
			check("after the refused restore")
		})
	}
}
