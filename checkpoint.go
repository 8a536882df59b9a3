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
// The frame (header, kind code, CRC), locking and stream position live
// in gate.go (marshalAgg/unmarshalAgg); each aggregate only binds its
// body encoder and decoder here. The linear sketches and Misra–Gries
// encode their own bodies (internal/cms, internal/mg); a window kind's
// body is the gob of its State. Pipeline and Sharded bodies are member
// lists (appendMember/openMembers). Checkpoints written before the
// frame are read by checkpoint_legacy.go.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/bcount"
	"repro/internal/cms"
	"repro/internal/mg"
	"repro/internal/swfreq"
	"repro/internal/wsum"
)

// CheckpointKind reports the kind of a checkpoint from its header alone,
// without restoring it — how the federation layer tells a whole-pipeline
// payload from a single-aggregate one before picking a decoder.
func CheckpointKind(data []byte) (Kind, error) {
	if !framed(data) {
		return legacyCheckpointKind(data)
	}
	f, _, err := readHeader(data)
	return f.kind, err
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

// appendGob appends the gob of state: a window kind's version-1 body.
func appendGob(dst []byte, state any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(state); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobBody decodes a window kind's version-1 body into its State and
// rebuilds the implementation with restore.
func gobBody[S, T any](restore func(S) (T, error)) func([]byte) (T, error) {
	return func(body []byte) (T, error) {
		var st S
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
			var zero T
			return zero, err
		}
		return restore(st)
	}
}

// memberFrame is one entry of a Pipeline or Sharded body; ckpt aliases
// the input.
type memberFrame struct {
	name string
	kind Kind
	ckpt []byte
}

// appendMember appends one member of a Pipeline or Sharded body, whose
// first four bytes are the member count: the name (uvarint length, then
// bytes), then the member's frame inline.
func appendMember(dst []byte, name string, agg Aggregate) ([]byte, error) {
	ckpt, err := agg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return append(dst, ckpt...), nil
}

// openMembers opens a Pipeline or Sharded checkpoint and splits its body
// into members. The members' CRCs are checked when they are restored.
func openMembers(kind Kind, data []byte) ([]memberFrame, int64, error) {
	if !framed(data) {
		return openLegacyMembers(kind, data)
	}
	f, err := open(kind, data)
	if err != nil {
		return nil, 0, err
	}
	b := f.body
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("streamagg: malformed %s checkpoint: no member count", kind)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)/(1+headerSize)) {
		return nil, 0, fmt.Errorf("streamagg: malformed %s checkpoint: %d members in %d bytes", kind, n, len(b))
	}
	ms := make([]memberFrame, n)
	for i := range ms {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > uint64(len(b)-k) {
			return nil, 0, fmt.Errorf("streamagg: malformed %s checkpoint: member %d name", kind, i)
		}
		ms[i].name = string(b[k : k+int(l)])
		b = b[k+int(l):]
		mf, rest, err := readHeader(b)
		if err != nil {
			return nil, 0, fmt.Errorf("streamagg: %s checkpoint member %d: %w", kind, i, err)
		}
		ms[i].kind, ms[i].ckpt = mf.kind, b[:len(b)-len(rest)]
		b = rest
	}
	if len(b) != 0 {
		return nil, 0, fmt.Errorf("streamagg: malformed %s checkpoint: %d bytes after the members", kind, len(b))
	}
	return ms, f.streamLen, nil
}

// MarshalBinary checkpoints the counter between minibatches.
func (c *BasicCounter) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindBasicCounter, func(dst []byte) ([]byte, error) { return appendGob(dst, c.impl.State()) })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *BasicCounter) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindBasicCounter, data, gobBody(bcount.FromState), bcount.FromState,
		func(impl *bcount.Counter) { c.impl = impl })
}

// MarshalBinary checkpoints the summer between minibatches.
func (s *WindowSum) MarshalBinary() ([]byte, error) {
	return marshalAgg(&s.gate, KindWindowSum, func(dst []byte) ([]byte, error) { return appendGob(dst, s.impl.State()) })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (s *WindowSum) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&s.gate, KindWindowSum, data, gobBody(wsum.FromState), wsum.FromState,
		func(impl *wsum.Summer) { s.impl = impl })
}

// MarshalBinary checkpoints the estimator between minibatches.
func (f *FreqEstimator) MarshalBinary() ([]byte, error) {
	return marshalAgg(&f.gate, KindFreq, func(dst []byte) ([]byte, error) { return f.impl.AppendBody(dst), nil })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (f *FreqEstimator) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&f.gate, KindFreq, data, mg.DecodeBody, mg.FromState,
		func(impl *mg.Summary) { f.impl = impl })
}

// MarshalBinary checkpoints the estimator between minibatches.
func (s *SlidingFreqEstimator) MarshalBinary() ([]byte, error) {
	return marshalAgg(&s.gate, KindSlidingFreq, func(dst []byte) ([]byte, error) { return appendGob(dst, s.impl.State()) })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (s *SlidingFreqEstimator) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&s.gate, KindSlidingFreq, data, gobBody(swfreq.FromState), swfreq.FromState,
		func(impl *swfreq.Estimator) { s.impl = impl })
}

// MarshalBinary checkpoints the sketch between minibatches.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountMin, func(dst []byte) ([]byte, error) { return c.impl.AppendBody(dst), nil })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountMin) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountMin, data, cms.DecodeSketch, cms.FromState,
		func(impl *cms.Sketch) { c.impl = impl })
}

// MarshalBinary checkpoints the range sketch between minibatches.
func (c *CountMinRange) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountMinRange, func(dst []byte) ([]byte, error) { return c.impl.AppendBody(dst), nil })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountMinRange) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountMinRange, data, cms.DecodeRange, cms.RangeFromState,
		func(impl *cms.RangeSketch) { c.impl = impl })
}

// MarshalBinary checkpoints the sketch between minibatches.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return marshalAgg(&c.gate, KindCountSketch, func(dst []byte) ([]byte, error) { return c.impl.AppendBody(dst), nil })
}

// UnmarshalBinary restores a checkpoint made by MarshalBinary.
func (c *CountSketch) UnmarshalBinary(data []byte) error {
	return unmarshalAgg(&c.gate, KindCountSketch, data, cms.DecodeCountSketch, cms.CountSketchFromState,
		func(impl *cms.CountSketch) { c.impl = impl })
}
