package streamagg

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"repro/internal/cms"
	"repro/internal/workload"
)

// marshaler is the pair of interfaces every aggregate must implement.
type marshaler interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// TestCheckpointRoundTripMidStream: process the first half of a stream,
// checkpoint, restore into a fresh instance, feed both the second half,
// and require identical estimates — the Spark-style recovery contract.
func TestCheckpointRoundTripMidStream(t *testing.T) {
	stream := workload.Zipf(1, 60000, 1.2, 1<<14)
	first := workload.Batches(stream[:30000], 2048)
	second := workload.Batches(stream[30000:], 2048)
	probes := []uint64{0, 1, 2, 3, 10, 100, 5000, 1 << 40}

	t.Run("FreqEstimator", func(t *testing.T) {
		orig, _ := NewFreqEstimator(0.01)
		for _, b := range first {
			orig.ProcessBatch(b)
		}
		restored := &FreqEstimator{}
		roundTrip(t, orig, restored)
		for _, b := range second {
			orig.ProcessBatch(b)
			restored.ProcessBatch(b)
		}
		if orig.StreamLen() != restored.StreamLen() {
			t.Fatal("stream length diverged")
		}
		for _, p := range probes {
			if orig.Estimate(p) != restored.Estimate(p) {
				t.Fatalf("estimate diverged for %d", p)
			}
		}
	})

	t.Run("SlidingFreqEstimator", func(t *testing.T) {
		orig, _ := NewSlidingFreqEstimator(8192, 0.02)
		for _, b := range first {
			orig.ProcessBatch(b)
		}
		restored := &SlidingFreqEstimator{}
		roundTrip(t, orig, restored)
		for _, b := range second {
			orig.ProcessBatch(b)
			restored.ProcessBatch(b)
		}
		for _, p := range probes {
			if orig.Estimate(p) != restored.Estimate(p) {
				t.Fatalf("estimate diverged for %d", p)
			}
		}
		if orig.TrackedItems() != restored.TrackedItems() {
			t.Fatal("tracked items diverged")
		}
	})

	t.Run("CountMin", func(t *testing.T) {
		orig, _ := NewCountMin(0.001, 0.01, 7)
		for _, b := range first {
			orig.ProcessBatch(b)
		}
		restored := &CountMin{}
		roundTrip(t, orig, restored)
		for _, b := range second {
			orig.ProcessBatch(b)
			restored.ProcessBatch(b)
		}
		for _, p := range probes {
			if orig.Query(p) != restored.Query(p) {
				t.Fatalf("query diverged for %d", p)
			}
		}
		if orig.TotalCount() != restored.TotalCount() {
			t.Fatal("total diverged")
		}
	})

	t.Run("CountSketch", func(t *testing.T) {
		orig, _ := NewCountSketch(0.05, 0.01, 7)
		for _, b := range first {
			orig.ProcessBatch(b)
		}
		restored := &CountSketch{}
		roundTrip(t, orig, restored)
		for _, b := range second {
			orig.ProcessBatch(b)
			restored.ProcessBatch(b)
		}
		for _, p := range probes {
			if orig.Query(p) != restored.Query(p) {
				t.Fatalf("query diverged for %d", p)
			}
		}
	})
}

func TestCheckpointBasicCounterAndSum(t *testing.T) {
	bits := workload.BurstyBits(3, 1<<16, 1000, 0.05, 0.9)
	bb := workload.BitBatches(bits, 1024)
	orig, _ := NewBasicCounter(4096, 0.05)
	for _, b := range bb[:32] {
		orig.ProcessBits(b)
	}
	restored := &BasicCounter{}
	roundTrip(t, orig, restored)
	for _, b := range bb[32:] {
		orig.ProcessBits(b)
		restored.ProcessBits(b)
	}
	if orig.Estimate() != restored.Estimate() {
		t.Fatalf("basic counter diverged: %d vs %d", orig.Estimate(), restored.Estimate())
	}

	vals := workload.Values(4, 1<<15, 1023, 2)
	vb := workload.Batches(vals, 1024)
	os, _ := NewWindowSum(4096, 1023, 0.05)
	for _, b := range vb[:16] {
		if err := os.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	rs := &WindowSum{}
	roundTrip(t, os, rs)
	for _, b := range vb[16:] {
		os.ProcessBatch(b)
		rs.ProcessBatch(b)
	}
	if os.Estimate() != rs.Estimate() {
		t.Fatalf("window sum diverged: %d vs %d", os.Estimate(), rs.Estimate())
	}
}

func TestCheckpointCountMinRange(t *testing.T) {
	orig, _ := NewCountMinRange(12, 0.005, 0.01, 3)
	items := workload.Uniform(5, 20000, 4096)
	orig.ProcessBatch(items)
	restored := &CountMinRange{}
	roundTrip(t, orig, restored)
	for _, probe := range [][2]uint64{{0, 100}, {500, 3000}, {0, 4095}} {
		if orig.RangeCount(probe[0], probe[1]) != restored.RangeCount(probe[0], probe[1]) {
			t.Fatalf("range count diverged on [%d,%d]", probe[0], probe[1])
		}
	}
	if orig.Quantile(0.5) != restored.Quantile(0.5) {
		t.Fatal("quantile diverged")
	}
}

func TestCheckpointKindMismatch(t *testing.T) {
	f, _ := NewFreqEstimator(0.1)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var c CountMin
	if err := c.UnmarshalBinary(data); !errors.Is(err, ErrBadParam) {
		t.Fatalf("cross-type restore accepted: %v", err)
	}
}

func TestCheckpointGarbage(t *testing.T) {
	var f FreqEstimator
	if err := f.UnmarshalBinary([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// sealLegacy writes a checkpoint in the legacy format, a gob envelope
// around a gob state, as releases before the framed format did.
func sealLegacy(kind Kind, streamLen int64, state any) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(state); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err := gob.NewEncoder(&out).Encode(envelope{Kind: string(kind), StreamLen: streamLen, Body: body.Bytes()})
	return out.Bytes(), err
}

// schemeZeroCheckpoints seals legacy count-min, count-sketch and
// count-min-range envelopes whose state (for count-min-range, one level)
// has hash scheme 0: what a checkpoint written before derived-row
// hashing decodes as.
func schemeZeroCheckpoints(tb testing.TB) [][]byte {
	tb.Helper()
	st := cms.NewWithDims(2, 8, 5).State()
	st.Scheme = 0
	rs := cms.NewRange(3, 0.5, 0.5, 1).State()
	rs.Levels[1].Scheme = 0
	var out [][]byte
	for _, c := range []struct {
		kind  Kind
		state any
	}{{KindCountMin, st}, {KindCountSketch, st}, {KindCountMinRange, rs}} {
		data, err := sealLegacy(c.kind, 3, c.state)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestCheckpointSchemeZeroRejected: a scheme-0 envelope is refused
// through the public restore path, with the restore error that names
// the scheme (internal/cms checks each FromState directly).
func TestCheckpointSchemeZeroRejected(t *testing.T) {
	for _, data := range schemeZeroCheckpoints(t) {
		if agg, err := UnmarshalAggregate(data); err == nil || !strings.Contains(err.Error(), "hash scheme 0") {
			t.Fatalf("UnmarshalAggregate on a scheme-0 envelope: %v, err %v", agg, err)
		}
	}
}

func roundTrip(t *testing.T, src, dst marshaler) {
	t.Helper()
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointIsAFunctionOfState: a checkpoint depends only on the
// state it captures. For a pipeline holding one member of every kind
// (and a sharded one), two MarshalBinary calls give identical bytes, and
// so does marshalling the pipeline those bytes restore to. Without that,
// byte-identity checks on /v1/checkpoint could not cover a window kind.
func TestCheckpointIsAFunctionOfState(t *testing.T) {
	p := NewPipeline()
	for _, m := range []struct {
		name string
		kind Kind
		opts []Option
	}{
		{"ones", KindBasicCounter, []Option{WithWindow(1 << 12)}},
		{"load", KindWindowSum, []Option{WithWindow(1 << 12), WithMaxValue(1 << 20)}},
		{"hot", KindFreq, []Option{WithEpsilon(0.01)}},
		{"recent", KindSlidingFreq, []Option{WithWindow(1 << 12), WithEpsilon(0.01)}},
		{"sketch", KindCountMin, []Option{WithEpsilon(0.01), WithSeed(7)}},
		{"sharded", KindCountMin, []Option{WithEpsilon(0.01), WithShards(2)}},
		{"dist", KindCountMinRange, []Option{WithUniverseBits(20), WithSeed(3)}},
		{"signed", KindCountSketch, []Option{WithEpsilon(0.1), WithSeed(9)}},
	} {
		if _, err := p.Add(m.name, m.kind, m.opts...); err != nil {
			t.Fatal(err)
		}
	}
	for b := int64(0); b < 4; b++ {
		if err := p.ProcessBatch(workload.Zipf(b, 3000, 1.1, 1<<18)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("marshal %d differs from the first (%d vs %d bytes)", i+2, len(again), len(first))
		}
	}
	restored, err := UnmarshalPipeline(first)
	if err != nil {
		t.Fatal(err)
	}
	re, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, first) {
		t.Fatalf("restore then marshal differs from the original checkpoint (%d vs %d bytes)", len(re), len(first))
	}
}
