package streamagg

// The legacy checkpoint reader. Before the framed format (gate.go) a
// checkpoint was a gob envelope around a gob state, for every kind and
// again for every Pipeline or Sharded member. This file reads such
// checkpoints and snapshots, read-only, so old data directories still
// restore; nothing writes the format any more. It is deleted in the next
// format release.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// envelope framed every legacy checkpoint: the kind tag guards against
// feeding one aggregate's checkpoint to another type, and the stream
// position restores StreamLen.
type envelope struct {
	Kind      string
	StreamLen int64
	Body      []byte
}

func openLegacy(kind Kind, data []byte, state any) (envelope, error) {
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

func legacyCheckpointKind(data []byte) (Kind, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return "", fmt.Errorf("streamagg: malformed checkpoint: %w", err)
	}
	return Kind(env.Kind), nil
}

// openLegacyAgg decodes a legacy single-aggregate checkpoint and rebuilds
// it with restore. A linear sketch's restore refuses hash scheme 0 (a
// checkpoint older than derived-row hashing).
func openLegacyAgg[T, S any](kind Kind, data []byte, restore func(S) (T, error)) (T, int64, error) {
	var (
		st   S
		zero T
	)
	env, err := openLegacy(kind, data, &st)
	if err != nil {
		return zero, 0, err
	}
	impl, err := restore(st)
	if err != nil {
		return zero, 0, err
	}
	return impl, env.StreamLen, nil
}

// pipelineState is the body of a legacy pipeline checkpoint: the
// registration order plus each aggregate's own kind-tagged checkpoint.
type pipelineState struct {
	Names       []string
	Kinds       []string
	Checkpoints [][]byte
}

// shardedState is the body of a legacy sharded checkpoint: the inner
// kind plus each shard's own kind-tagged checkpoint, in shard order.
type shardedState struct {
	Inner       string
	Checkpoints [][]byte
}

// openLegacyMembers decodes a legacy Pipeline or Sharded checkpoint into
// its members.
func openLegacyMembers(kind Kind, data []byte) ([]memberFrame, int64, error) {
	if kind == KindSharded {
		var st shardedState
		env, err := openLegacy(KindSharded, data, &st)
		if err != nil {
			return nil, 0, err
		}
		ms := make([]memberFrame, len(st.Checkpoints))
		for i, ckpt := range st.Checkpoints {
			ms[i] = memberFrame{kind: Kind(st.Inner), ckpt: ckpt}
		}
		return ms, env.StreamLen, nil
	}
	var st pipelineState
	env, err := openLegacy(kind, data, &st)
	if err != nil {
		return nil, 0, err
	}
	if len(st.Names) != len(st.Kinds) || len(st.Names) != len(st.Checkpoints) {
		return nil, 0, fmt.Errorf("%w: pipeline checkpoint tables disagree", ErrBadParam)
	}
	ms := make([]memberFrame, len(st.Names))
	for i, name := range st.Names {
		ms[i] = memberFrame{name: name, kind: Kind(st.Kinds[i]), ckpt: st.Checkpoints[i]}
	}
	return ms, env.StreamLen, nil
}
