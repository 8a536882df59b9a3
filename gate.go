package streamagg

// The shared aggregate wrapper. Every public aggregate embeds gate,
// which centralizes the three pieces of plumbing the concrete types used
// to duplicate:
//
//   - the reader-writer concurrency gate (updates serialize against
//     queries; any number of queries interleave) — including accessor
//     reads, which previously bypassed the lock and raced with
//     UnmarshalBinary swapping the implementation pointer;
//   - the ingested-element counter backing the uniform StreamLen();
//   - the checkpoint envelope (marshalAgg/unmarshalAgg), so each type's
//     BinaryMarshaler/BinaryUnmarshaler is a two-liner binding its
//     internal State/FromState pair.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// gate is the reader-writer gate plus stream position shared by all
// aggregates. The zero value is ready for use (UnmarshalBinary on a
// zero-value aggregate installs the implementation).
type gate struct {
	mu        sync.RWMutex
	streamLen int64
}

// ingest runs f under the write lock and advances the stream position by
// n elements.
func (g *gate) ingest(n int, f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
	g.streamLen += int64(n)
}

// ingestErr is ingest for fallible ingestion: the stream position
// advances only if f succeeds.
func (g *gate) ingestErr(n int, f func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := f(); err != nil {
		return err
	}
	g.streamLen += int64(n)
	return nil
}

// read runs f under the read lock.
func (g *gate) read(f func()) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	f()
}

// lockPair runs f, one step of folding o into g, with o read-locked and
// g write-locked (read-locked for foldCheck), then moves g's stream
// position by o's when f succeeds. The argument is read in place rather
// than copied first: holding both gates is safe while merges form no
// cycle, and concurrent mutual merges (a into b while b into a) are not
// supported (Merger).
func (g *gate) lockPair(o *gate, op foldOp, f func() error) error {
	if op == foldCheck {
		g.mu.RLock()
		defer g.mu.RUnlock()
	} else {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if err := f(); err != nil {
		return err
	}
	switch op {
	case foldMerge:
		g.streamLen += o.streamLen
	case foldSubtract:
		g.streamLen -= o.streamLen
	}
	return nil
}

// StreamLen reports the number of stream elements ingested so far
// (items, bits, or values, depending on the aggregate).
func (g *gate) StreamLen() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.streamLen
}

// envelope frames every checkpoint: the kind tag guards against feeding
// one aggregate's checkpoint to another type, and the stream position
// restores StreamLen.
type envelope struct {
	Kind      string
	StreamLen int64
	Body      []byte
}

func seal(kind Kind, streamLen int64, state any) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(state); err != nil {
		return nil, fmt.Errorf("streamagg: encoding %s state: %w", kind, err)
	}
	var out bytes.Buffer
	env := envelope{Kind: string(kind), StreamLen: streamLen, Body: body.Bytes()}
	if err := gob.NewEncoder(&out).Encode(env); err != nil {
		return nil, fmt.Errorf("streamagg: sealing %s checkpoint: %w", kind, err)
	}
	return out.Bytes(), nil
}

func open(kind Kind, data []byte, state any) (envelope, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return env, fmt.Errorf("streamagg: malformed checkpoint: %w", err)
	}
	if env.Kind != string(kind) {
		return env, fmt.Errorf("%w: checkpoint is for %q, not %q", ErrBadParam, env.Kind, kind)
	}
	if err := gob.NewDecoder(bytes.NewReader(env.Body)).Decode(state); err != nil {
		return env, fmt.Errorf("streamagg: decoding %s state: %w", kind, err)
	}
	return env, nil
}

// marshalAgg captures an aggregate's state under the read lock. state is
// called while the lock is held so it sees a batch-boundary-consistent
// implementation.
func marshalAgg[S any](g *gate, kind Kind, state func() S) ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return seal(kind, g.streamLen, state())
}

// unmarshalAgg restores an aggregate from a checkpoint: it decodes the
// kind-checked state, rebuilds the implementation with restore, and
// installs it (plus the stream position) under the write lock.
func unmarshalAgg[T, S any](g *gate, kind Kind, data []byte, restore func(S) (T, error), install func(T)) error {
	var st S
	env, err := open(kind, data, &st)
	if err != nil {
		return err
	}
	impl, err := restore(st)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	install(impl)
	g.streamLen = env.StreamLen
	return nil
}
