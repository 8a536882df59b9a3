package federation

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func validEnvelope() *Envelope {
	return &Envelope{
		Node:    "edge-1",
		Epoch:   42,
		Seq:     7,
		Mode:    ModeFull,
		Payload: []byte("checkpoint bytes"),
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	want := validEnvelope()
	want.Agg = "hot"
	data, err := EncodeEnvelope(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != want.Node || got.Epoch != want.Epoch || got.Seq != want.Seq ||
		got.Mode != want.Mode || got.Agg != want.Agg || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
}

func TestEnvelopeValidation(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*Envelope)
	}{
		{"empty node", func(e *Envelope) { e.Node = "" }},
		{"oversized node", func(e *Envelope) { e.Node = strings.Repeat("x", MaxNodeID+1) }},
		{"bad mode", func(e *Envelope) { e.Mode = Mode(99) }},
		{"empty payload", func(e *Envelope) { e.Payload = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			e := validEnvelope()
			tc.mutate(e)
			if _, err := EncodeEnvelope(e); !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("EncodeEnvelope: %v, want ErrBadEnvelope", err)
			}
		})
	}
	if _, err := EncodeEnvelope(nil); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("EncodeEnvelope(nil): %v", err)
	}
}

func TestDecodeEnvelopeRejectsGarbage(t *testing.T) {
	good, err := EncodeEnvelope(validEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           nil,
		"wrong magic":     []byte("NOPE" + string(good[4:])),
		"magic only":      []byte("FMv1"),
		"truncated gob":   good[:len(good)/2],
		"trailing junk":   []byte("not an envelope at all"),
		"json lookalike":  []byte(`FMv1{"node":"edge-1"}`),
		"null bytes":      bytes.Repeat([]byte{0}, 64),
		"corrupted field": append(append([]byte{}, good[:8]...), bytes.Repeat([]byte{0xff}, 32)...),
	}
	for label, data := range cases {
		if _, err := DecodeEnvelope(data); !errors.Is(err, ErrBadEnvelope) {
			t.Fatalf("%s: DecodeEnvelope = %v, want ErrBadEnvelope", label, err)
		}
	}
}

// FuzzEnvelopeDecode feeds arbitrary bytes to the merge-envelope
// decoder: it must never panic, and anything it accepts must satisfy
// the envelope invariants and re-encode losslessly.
func FuzzEnvelopeDecode(f *testing.F) {
	if data, err := EncodeEnvelope(validEnvelope()); err == nil {
		f.Add(data)
		f.Add(data[:len(data)-3])
		f.Add(append([]byte("XXv1"), data[4:]...))
	}
	big := validEnvelope()
	big.Mode = ModeDelta
	big.Payload = bytes.Repeat([]byte{0xab}, 4096)
	if data, err := EncodeEnvelope(big); err == nil {
		f.Add(data)
	}
	f.Add([]byte("FMv1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrBadEnvelope) {
				t.Fatalf("decode error outside ErrBadEnvelope: %v", err)
			}
			return
		}
		if err := e.validate(); err != nil {
			t.Fatalf("decoder accepted an invalid envelope: %v", err)
		}
		re, err := EncodeEnvelope(e)
		if err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		e2, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if e2.Node != e.Node || e2.Epoch != e.Epoch || e2.Seq != e.Seq ||
			e2.Mode != e.Mode || e2.Agg != e.Agg || !bytes.Equal(e2.Payload, e.Payload) {
			t.Fatal("re-encode round trip changed the envelope")
		}
	})
}
