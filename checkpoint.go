package streamagg

// Checkpointing. The discretized-stream model this library implements is
// the one Spark Streaming popularized [ZDL+13], where fault tolerance
// comes from checkpointing operator state between minibatches. Every
// aggregate therefore implements encoding.BinaryMarshaler and
// encoding.BinaryUnmarshaler: MarshalBinary between two ProcessBatch
// calls captures the full state; UnmarshalBinary restores an estimator
// that continues exactly where the original left off (identical
// estimates on identical suffixes).
//
// The locking, kind-tagged envelope, and stream-position plumbing live
// in gate.go (marshalAgg/unmarshalAgg); each aggregate only binds its
// internal State/FromState pair here. Pipeline checkpointing, which
// composes these per-aggregate envelopes, lives in pipeline.go.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/mg"
	"repro/internal/swfreq"
	"repro/internal/wsum"
)

// CheckpointKind reports the kind tag of a checkpoint envelope without
// restoring it — how the federation layer tells a whole-pipeline
// payload from a single-aggregate one before picking a decoder.
func CheckpointKind(data []byte) (Kind, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return "", fmt.Errorf("streamagg: malformed checkpoint: %w", err)
	}
	return Kind(env.Kind), nil
}

// UnmarshalAggregate rebuilds a single aggregate from its kind-tagged
// checkpoint envelope, dispatching on the embedded kind. Whole-pipeline
// envelopes are rejected — use UnmarshalPipeline for those.
func UnmarshalAggregate(data []byte) (Aggregate, error) {
	kind, err := CheckpointKind(data)
	if err != nil {
		return nil, err
	}
	agg, err := zeroAggregate(kind)
	if err != nil {
		return nil, err
	}
	if err := agg.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return agg, nil
}

// UnmarshalPipeline rebuilds a whole pipeline from a checkpoint made by
// Pipeline.MarshalBinary.
func UnmarshalPipeline(data []byte) (*Pipeline, error) {
	p := NewPipeline()
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalBinary checkpoints the counter between minibatches.
func (c *BasicCounter) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindBasicCounter, func() bcount.State { return c.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *BasicCounter) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindBasicCounter, data, bcount.FromState,
		func(impl *bcount.Counter) { c.impl = impl })
}

// MarshalBinary checkpoints the summer between minibatches.
func (s *WindowSum) MarshalBinary() ([]byte, error) {
	return marshalAgg(&s.gate, KindWindowSum, func() wsum.State { return s.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (s *WindowSum) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&s.gate, KindWindowSum, data, wsum.FromState,
		func(impl *wsum.Summer) { s.impl = impl })
}

// MarshalBinary checkpoints the estimator between minibatches.
func (f *FreqEstimator) MarshalBinary() ([]byte, error) {
	return marshalAgg(&f.gate, KindFreq, func() mg.State { return f.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (f *FreqEstimator) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&f.gate, KindFreq, data, mg.FromState,
		func(impl *mg.Summary) { f.impl = impl })
}

// MarshalBinary checkpoints the estimator between minibatches.
func (s *SlidingFreqEstimator) MarshalBinary() ([]byte, error) {
	return marshalAgg(&s.gate, KindSlidingFreq, func() swfreq.State { return s.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (s *SlidingFreqEstimator) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&s.gate, KindSlidingFreq, data, swfreq.FromState,
		func(impl *swfreq.Estimator) { s.impl = impl })
}

// MarshalBinary checkpoints the sketch between minibatches.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountMin, func() cms.State { return c.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountMin) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountMin, data, cms.FromState,
		func(impl *cms.Sketch) { c.impl = impl })
}

// MarshalBinary checkpoints the range sketch between minibatches.
func (c *CountMinRange) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountMinRange, func() cms.RangeState { return c.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountMinRange) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountMinRange, data, cms.RangeFromState,
		func(impl *cms.RangeSketch) { c.impl = impl })
}

// MarshalBinary checkpoints the sketch between minibatches.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountSketch, func() cms.State { return c.impl.State() })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountSketch, data, cms.CountSketchFromState,
		func(impl *cms.CountSketch) { c.impl = impl })
}
