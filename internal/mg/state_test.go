package mg

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// TestBodyRoundTrip: a summary decodes from its body to equal counters
// and position, answers the same, and re-encodes to the same bytes.
func TestBodyRoundTrip(t *testing.T) {
	g := New(0.05)
	g.ProcessBatch([]uint64{1, 1, 1, 2, 3, 1 << 63, 1 << 63, 9, 9, 9, 9})
	body := g.AppendBody(nil)
	r, err := DecodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if r.capS != g.capS || r.m != g.m || r.seed != g.seed || !reflect.DeepEqual(r.entries, g.entries) {
		t.Fatal("decoded summary differs")
	}
	for _, item := range []uint64{1, 2, 9, 1 << 63, 77} {
		if r.Estimate(item) != g.Estimate(item) {
			t.Fatalf("Estimate(%d) differs", item)
		}
	}
	if !bytes.Equal(r.AppendBody(nil), body) {
		t.Fatal("re-encoding changed the bytes")
	}
}

// TestBodyRejectsMalformed: the checks FromState makes, plus length
// checks, refuse malformed bodies.
func TestBodyRejectsMalformed(t *testing.T) {
	g := NewWithCapacity(3)
	g.ProcessBatch([]uint64{4, 4, 5})
	body := g.AppendBody(nil)
	set := func(off int, v uint64, size int) []byte {
		b := append([]byte(nil), body...)
		if size == 8 {
			binary.LittleEndian.PutUint64(b[off:], v)
		} else {
			binary.LittleEndian.PutUint32(b[off:], uint32(v))
		}
		return b
	}
	// 2^30 entries claimed, none present: refused before allocating.
	countPastBody := set(0, 1<<40, 8)[:bodyFixed]
	binary.LittleEndian.PutUint32(countPastBody[24:], 1<<30)
	for name, b := range map[string][]byte{
		"short":           body[:bodyFixed-1],
		"truncated":       body[:len(body)-1],
		"trailing":        append(append([]byte(nil), body...), 0),
		"zero capacity":   set(0, 0, 8),
		"negative m":      set(8, 1<<63, 8),
		"over capacity":   set(24, 4, 4),
		"count past body": countPastBody,
	} {
		if _, err := DecodeBody(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
