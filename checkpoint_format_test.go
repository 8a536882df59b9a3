package streamagg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/workload"
)

var writeV2Fixture = flag.Bool("write-pipeline-v2-fixture", false,
	"regenerate testdata/pipeline_v2.ckpt from this checkout's MarshalBinary")

// TestPipelineV2Fixture pins the framed format byte for byte: the
// fixtureStream pipeline checkpoints to exactly testdata/pipeline_v2.ckpt,
// and that file restores to a pipeline that answers as the parent
// fixture's commit did, before and after one more batch.
func TestPipelineV2Fixture(t *testing.T) {
	path := filepath.Join("testdata", "pipeline_v2.ckpt")
	batches, more, probes := fixtureStream()
	p := newHistPipeline(t)
	for _, b := range batches {
		if err := p.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if *writeV2Fixture {
		if err := os.WriteFile(path, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, golden) {
		t.Fatalf("MarshalBinary (%d bytes) differs from %s (%d bytes): the format changed without a body version bump", len(ckpt), path, len(golden))
	}
	data, err := os.ReadFile(filepath.Join("testdata", "parent_pipeline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want parentFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalPipeline(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, restored, probes); !reflect.DeepEqual(got, want.Before) {
		t.Fatal("restored v2 fixture answers differ from the parent fixture's")
	}
	if err := restored.ProcessBatch(more); err != nil {
		t.Fatal(err)
	}
	if got := queryAll(t, restored, probes); !reflect.DeepEqual(got, want.After) {
		t.Fatal("restored v2 fixture answers differ from the parent fixture's after one more batch")
	}
}

// fedTrio is demoTrio fed n zipf keys.
func fedTrio(tb testing.TB, n int) *Pipeline {
	tb.Helper()
	p := demoTrio(tb)
	if err := p.ProcessBatch(workload.Zipf(5, n, 1.1, 1<<18)); err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestCheckpointCorruption: on a demo-trio checkpoint, a flipped byte
// anywhere in the header or body, and a truncation at every header
// offset and throughout the body, is refused with an error, never a
// panic.
func TestCheckpointCorruption(t *testing.T) {
	ckpt, err := fedTrio(t, 2000).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPipeline(ckpt); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ckpt...)
	for i := range bad {
		for _, mask := range []byte{0x01, 0x80} {
			bad[i] ^= mask
			if _, err := UnmarshalPipeline(bad); err == nil {
				t.Fatalf("byte %d ^ %#x accepted", i, mask)
			}
			bad[i] ^= mask
		}
	}
	for n := 0; n < headerSize; n++ {
		if _, err := CheckpointKind(ckpt[:n]); err == nil {
			t.Fatalf("CheckpointKind accepted a %d-byte header", n)
		}
	}
	for n, step := 0, 1; n < len(ckpt); n += step {
		if n >= headerSize {
			step = 97
		}
		if _, err := UnmarshalPipeline(ckpt[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(ckpt))
		}
	}
}

// TestCheckpointForgedDims: a count-min frame whose header is valid and
// whose body claims d·w far beyond what its bytes can hold errors before
// allocating the cells.
func TestCheckpointForgedDims(t *testing.T) {
	forged, err := appendFrame(nil, KindCountMin, 0, func(dst []byte) ([]byte, error) {
		dst = binary.LittleEndian.AppendUint32(dst, 1<<20) // d
		dst = binary.LittleEndian.AppendUint32(dst, 1<<20) // w: 2^40 cells, 8 TiB
		dst = append(dst, make([]byte, 24)...)             // m, hash seed, rolling seed
		return append(dst, make([]byte, 64)...), nil       // four blocks' worth of bytes
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c CountMin
	err = c.UnmarshalBinary(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged dimensions accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing forged dimensions allocated %d bytes", grew)
	}
}

// TestCheckpointRestoreAllocs: restoring a count-min pipeline allocates
// no object per cell or per row width (the same count at ε = 1e-3 and
// ε = 1e-4), and CheckpointKind allocates at most once.
func TestCheckpointRestoreAllocs(t *testing.T) {
	// A GC cycle under the race detector's runtime mallocs objects of its
	// own, and AllocsPerRun counts them; the ε = 1e-4 loop restores 1 MiB
	// per run, enough to start one. GC stays off so the pins count only
	// the restore.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	restoreAllocs := func(eps float64) float64 {
		p := NewPipeline()
		if _, err := p.Add("sketch", KindCountMin, WithEpsilon(eps), WithSeed(7)); err != nil {
			t.Fatal(err)
		}
		if err := p.ProcessBatch(workload.Zipf(5, 20000, 1.1, 1<<18)); err != nil {
			t.Fatal(err)
		}
		ckpt, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalPipeline(ckpt); err != nil {
				t.Fatal(err)
			}
		})
	}
	if coarse, fine := restoreAllocs(1e-3), restoreAllocs(1e-4); coarse != fine {
		t.Fatalf("UnmarshalPipeline allocates %.0f objects at ε = 1e-3 but %.0f at ε = 1e-4", coarse, fine)
	}
	ckpt, err := fedTrio(t, 2000).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := CheckpointKind(ckpt); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("CheckpointKind allocates %.0f objects, want <= 1", allocs)
	}
}
