// Package federation implements merge fan-in for streamagg deployments:
// nodes absorb local traffic at full speed and periodically ship their
// summaries to a parent that answers global queries in one hop. The
// wire unit is the Envelope — a node-tagged, sequence-numbered wrapper
// around the library's existing checkpoint format — pushed over HTTP to
// the parent's /v1/merge endpoint and folded in with the Merger
// capability, the mergeable-summaries property [ACH+13] at cluster
// scope.
//
// Every push carries the node's whole state (ModeFull) and replaces
// that node's previous part at the parent, so delivery need only be
// at-least-once: the Pusher retries transient failures, the parent
// deduplicates by (epoch, seq) per node, and a replayed or lost push
// costs nothing. An interior node pushes its whole view (its own state
// and every child's latest part), so any tree of pushes answers at the
// top like one summary of every node's stream. Trees, not DAGs: a node
// reachable by two paths is counted twice, and a cycle (a push target
// that leads back to the pushing node) feeds each node's view back into
// itself, so counts grow on every push without limit. The server
// refuses a push from its own node ID; longer cycles it cannot see.
package federation

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
)

// Wire-format limits. MaxNodeID keeps per-node metric labels and maps
// bounded; MaxPayload matches the server's checkpoint body cap; MaxNodes
// caps how many node IDs one Root holds a part for, since each part is
// a whole pipeline kept in memory.
const (
	MaxNodeID  = 128
	MaxPayload = 256 << 20
	MaxNodes   = 256
)

// envelopeMagic frames federation envelopes so a truncated or foreign
// body fails fast instead of deep inside gob.
var envelopeMagic = []byte("FMv1")

// Wire-level sentinel errors. ErrBadEnvelope covers framing and field
// validation (HTTP 400); ErrStale covers duplicate and out-of-order
// pushes the root has already superseded (HTTP 409, safe to drop);
// ErrCapacity refuses a new node ID once MaxNodes are held (HTTP 429,
// retried).
var (
	ErrBadEnvelope = errors.New("federation: bad merge envelope")
	ErrStale       = errors.New("federation: stale push")
	ErrCapacity    = errors.New("federation: node capacity reached")
)

// Mode selects what an envelope's payload represents.
type Mode int

const (
	// ModeFull ships the node's complete summary every push. The root
	// keeps only the latest full contribution per node, so pushes are
	// idempotent-by-seq and a lost push costs nothing — the next one
	// carries everything. The only mode the Pusher sends.
	ModeFull Mode = iota
	// ModeDelta payloads hold only what accumulated at the sender since
	// its previous push; the root merges them destructively into its
	// base pipeline. No Pusher sends them any more; the root still
	// lands them so that edges running an older binary keep working
	// through a rolling upgrade.
	ModeDelta
)

// Envelope is one federation push: a checkpoint payload tagged with the
// origin node and a monotonically increasing (Epoch, Seq) pair. Seq
// increases per push within a process lifetime; Epoch increases across
// restarts (the Pusher derives it from the start time), so a restarted
// edge that forgot its seq counter still moves strictly forward and the
// root's lexicographic (epoch, seq) comparison stays correct.
type Envelope struct {
	Node  string
	Epoch uint64
	Seq   uint64
	Mode  Mode
	// Agg names the single root-pipeline member the payload targets; it
	// is empty when Payload is a whole-pipeline checkpoint (members
	// matched by name+kind).
	Agg     string
	Payload []byte
}

// validate enforces the field constraints shared by encode and decode.
func (e *Envelope) validate() error {
	switch {
	case e.Node == "":
		return fmt.Errorf("%w: empty node ID", ErrBadEnvelope)
	case len(e.Node) > MaxNodeID:
		return fmt.Errorf("%w: node ID longer than %d bytes", ErrBadEnvelope, MaxNodeID)
	case e.Mode != ModeFull && e.Mode != ModeDelta:
		return fmt.Errorf("%w: unknown mode %d", ErrBadEnvelope, int(e.Mode))
	case len(e.Payload) == 0:
		return fmt.Errorf("%w: empty payload", ErrBadEnvelope)
	case len(e.Payload) > MaxPayload:
		return fmt.Errorf("%w: payload larger than %d bytes", ErrBadEnvelope, MaxPayload)
	}
	return nil
}

// EncodeEnvelope serializes an envelope for POST /v1/merge: a 4-byte
// magic followed by the gob-encoded envelope.
func EncodeEnvelope(e *Envelope) ([]byte, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil envelope", ErrBadEnvelope)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(envelopeMagic)
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("federation: encoding envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeEnvelope parses and validates an envelope from a request body.
// Any malformed input — bad magic, truncated gob, out-of-range fields —
// returns an error wrapping ErrBadEnvelope; the decoder never panics on
// adversarial bytes (FuzzEnvelopeDecode holds it to that).
func DecodeEnvelope(data []byte) (*Envelope, error) {
	if !bytes.HasPrefix(data, envelopeMagic) {
		return nil, fmt.Errorf("%w: missing %q frame", ErrBadEnvelope, envelopeMagic)
	}
	var e Envelope
	if err := gob.NewDecoder(bytes.NewReader(data[len(envelopeMagic):])).Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return &e, nil
}
