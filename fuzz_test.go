package streamagg

// Native Go fuzz targets for the checkpoint surface: UnmarshalBinary on
// every aggregate kind, on Sharded, and on whole-Pipeline checkpoints,
// in the framed format and the legacy gob one.
// The contract under fuzzing is strict: corrupted or truncated input
// must produce an error — never a panic, and never an allocation driven
// by unvalidated decoded lengths (OOM). When a mutated envelope happens
// to decode cleanly, the restored value must additionally survive light
// use (queries and a small batch).

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKinds is every public aggregate kind.
var fuzzKinds = []Kind{
	KindBasicCounter, KindWindowSum, KindFreq, KindSlidingFreq,
	KindCountMin, KindCountMinRange, KindCountSketch,
}

// fuzzSeedCheckpoints builds one small valid checkpoint per kind (plus a
// sharded one) to seed the corpus, so mutation starts from well-formed
// envelopes instead of random bytes.
func fuzzSeedCheckpoints(f *testing.F) [][]byte {
	f.Helper()
	opts := map[Kind][]Option{
		KindBasicCounter:  {WithWindow(64), WithEpsilon(0.2)},
		KindWindowSum:     {WithWindow(64), WithMaxValue(255), WithEpsilon(0.2)},
		KindFreq:          {WithEpsilon(0.1)},
		KindSlidingFreq:   {WithWindow(64), WithEpsilon(0.2)},
		KindCountMin:      {WithEpsilon(0.1), WithDelta(0.1)},
		KindCountMinRange: {WithUniverseBits(8), WithEpsilon(0.1), WithDelta(0.1)},
		KindCountSketch:   {WithEpsilon(0.2), WithDelta(0.1)},
	}
	var out [][]byte
	for _, kind := range fuzzKinds {
		agg, err := New(kind, opts[kind]...)
		if err != nil {
			f.Fatal(err)
		}
		if err := agg.ProcessBatch([]uint64{1, 2, 3, 0, 5, 1}); err != nil {
			f.Fatal(err)
		}
		ckpt, err := agg.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, ckpt)
	}
	sharded, err := NewSharded(KindCountMin, 3, WithEpsilon(0.1), WithDelta(0.1))
	if err != nil {
		f.Fatal(err)
	}
	if err := sharded.ProcessBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		f.Fatal(err)
	}
	ckpt, err := sharded.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	return append(out, ckpt)
}

// legacySeedCheckpoints returns checkpoints in the legacy gob format:
// the parent fixture pipeline, each of its members, and a sharded
// wrapper around its count-min member.
func legacySeedCheckpoints(f *testing.F) [][]byte {
	f.Helper()
	pipe, err := os.ReadFile(filepath.Join("testdata", "parent_pipeline.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	var ps pipelineState
	if _, err := openLegacy(kindPipeline, pipe, &ps); err != nil {
		f.Fatal(err)
	}
	out := append([][]byte{pipe}, ps.Checkpoints...)
	for i, kind := range ps.Kinds {
		if Kind(kind) != KindCountMin {
			continue
		}
		sharded, err := sealLegacy(KindSharded, 0, shardedState{Inner: kind, Checkpoints: ps.Checkpoints[i : i+1]})
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, sharded)
	}
	return out
}

// fuzzSeed seeds every kind's checkpoint in both formats, framed and
// legacy, whole and truncated.
func fuzzSeed(f *testing.F) {
	f.Helper()
	for _, ckpt := range append(fuzzSeedCheckpoints(f), legacySeedCheckpoints(f)...) {
		f.Add(ckpt)
		f.Add(ckpt[:len(ckpt)/2]) // truncated envelope
	}
	for _, ckpt := range schemeZeroCheckpoints(f) {
		f.Add(ckpt) // well-formed but refused: hash scheme 0
	}
	f.Add([]byte{})
	f.Add([]byte("garbage that is not gob"))
}

// resealed returns data with its outer frame's CRC recomputed, so that
// mutations inside a framed body reach the body decoders instead of
// stopping at the checksum. Input that is not a whole frame is returned
// as is.
func resealed(data []byte) []byte {
	f, rest, err := readHeader(data)
	if err != nil || len(rest) != 0 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[24:], frameCRC(out, f.body))
	return out
}

// exerciseRestored runs light queries and a small batch against an
// aggregate that UnmarshalBinary accepted: acceptance implies usability.
func exerciseRestored(agg Aggregate) {
	_ = agg.Kind()
	_ = agg.StreamLen()
	_ = agg.SpaceWords()
	if pe, ok := agg.(PointEstimator); ok {
		_ = pe.Estimate(42)
	}
	if se, ok := agg.(ScalarEstimator); ok {
		_ = se.Estimate()
	}
	if hh, ok := agg.(HeavyHitterSource); ok {
		_ = hh.TopK(3)
		_ = hh.HeavyHitters(0.1)
	}
	if re, ok := agg.(RangeEstimator); ok {
		_ = re.RangeCount(0, 10)
		_ = re.Quantile(0.5)
	}
	_ = agg.ProcessBatch([]uint64{1, 2, 3}) // WindowSum may reject; must not panic
}

// FuzzAggregateUnmarshal feeds the input to every kind's zero value.
func FuzzAggregateUnmarshal(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		for _, kind := range fuzzKinds {
			for _, in := range [][]byte{data, resealed(data)} {
				fresh, err := zeroAggregate(kind)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.UnmarshalBinary(in); err != nil {
					continue
				}
				exerciseRestored(fresh)
			}
		}
	})
}

// FuzzShardedUnmarshal feeds the input to a zero-value Sharded, which
// recursively restores per-shard envelopes.
func FuzzShardedUnmarshal(f *testing.F) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		for _, in := range [][]byte{data, resealed(data)} {
			var s Sharded
			if err := s.UnmarshalBinary(in); err != nil {
				continue
			}
			exerciseRestored(&s)
			if _, err := s.Snapshot(); err != nil {
				// A restored shard set that cannot merge is acceptable; a
				// panic is not.
				_ = err
			}
		}
	})
}

// FuzzPipelineUnmarshal feeds the input to a zero-value Pipeline, which
// fans out to per-aggregate envelopes.
func FuzzPipelineUnmarshal(f *testing.F) {
	fuzzSeed(f)
	// Also seed a well-formed whole-pipeline checkpoint.
	p := NewPipeline()
	if _, err := p.Add("f", KindFreq, WithEpsilon(0.1)); err != nil {
		f.Fatal(err)
	}
	if _, err := p.Add("cm", KindCountMin, WithEpsilon(0.1), WithDelta(0.1), WithShards(2)); err != nil {
		f.Fatal(err)
	}
	if err := p.ProcessBatch([]uint64{1, 2, 3, 4}); err != nil {
		f.Fatal(err)
	}
	ckpt, err := p.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		for _, in := range [][]byte{data, resealed(data)} {
			var p Pipeline
			if err := p.UnmarshalBinary(in); err != nil {
				continue
			}
			for _, name := range p.Names() {
				_, _ = p.Estimate(name, 42)
				_, _ = p.Value(name)
				_, _ = p.TopK(name, 3)
				_, _ = p.RangeCount(name, 0, 10)
			}
			_ = p.ProcessBatch([]uint64{1, 2, 3})
			if _, err := p.MarshalBinary(); err != nil {
				t.Fatalf("restored pipeline cannot re-checkpoint: %v", err)
			}
		}
	})
}
