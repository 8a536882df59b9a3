package cms

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestBodyRoundTrip: a table whose blocks need every cell width, signed
// and unsigned, with a short last block, decodes to an equal table and
// re-encodes to the same bytes.
func TestBodyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewCountSketchWithDims(3, 101, 5) // 303 cells: 18 full blocks and one of 15
	fill := func(block int, lo, hi int64) {
		for i := block * blockCells; i < min((block+1)*blockCells, len(s.cells)); i++ {
			s.cells[i] = lo + rng.Int63n(hi-lo)
		}
	}
	// Block 0 stays zero (width 0).
	fill(1, 0, 256)            // unsigned, width 1 (zigzag would need 2)
	fill(2, -100, 100)         // signed, width 1
	fill(3, -30000, 30000)     // signed, width 2
	fill(4, 0, 1<<16)          // unsigned, width 2
	fill(5, -(1 << 30), 1<<30) // signed, width 4
	fill(6, 0, 1<<40)          // unsigned, width 8
	fill(7, math.MinInt64/2, math.MaxInt64/2)
	fill(18, -5, 5) // the short last block
	s.cells[7*blockCells] = math.MinInt64
	s.cells[7*blockCells+1] = math.MaxInt64
	s.m, s.seed = 12345, -6
	body := s.AppendBody(nil)
	r, err := DecodeCountSketch(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Fatal("decoded table differs")
	}
	if again := r.AppendBody(nil); !bytes.Equal(again, body) {
		t.Fatal("re-encoding changed the bytes")
	}
	codes := map[byte]bool{}
	for at, cells := tableFixed, len(s.cells); cells > 0; cells -= blockCells {
		codes[body[at]] = true
		at += 1 + int(body[at]&^signedBlock)*min(blockCells, cells)
	}
	for _, want := range []byte{0, 1, 2, 8, signedBlock | 1, signedBlock | 2, signedBlock | 4, signedBlock | 8} {
		if !codes[want] {
			t.Errorf("no block has width byte %#x (saw %v)", want, codes)
		}
	}

	rs := NewRange(4, 0.1, 0.1, 3)
	rs.ProcessBatch([]uint64{1, 2, 3, 3, 9, 15})
	rb := rs.AppendBody(nil)
	rr, err := DecodeRange(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.State(), rs.State()) {
		t.Fatal("decoded range sketch differs")
	}
}

// TestBodyRejectsMalformed: each kind of malformed body is an error.
func TestBodyRejectsMalformed(t *testing.T) {
	good := NewWithDims(2, 40, 1)
	good.Update(7, 300)
	body := good.AppendBody(nil)
	dims := func(d, w uint32) []byte {
		b := append([]byte(nil), body...)
		binary.LittleEndian.PutUint32(b, d)
		binary.LittleEndian.PutUint32(b[4:], w)
		return b
	}
	badWidth := append([]byte(nil), body...)
	badWidth[tableFixed] = 3
	signedZero := append([]byte(nil), body...)
	signedZero[tableFixed] = signedBlock
	for name, b := range map[string][]byte{
		"empty":          nil,
		"short fixed":    body[:tableFixed-1],
		"truncated":      body[:len(body)-1],
		"trailing":       append(append([]byte(nil), body...), 0),
		"zero depth":     dims(0, 40),
		"huge dims":      dims(1<<28+1, 1),
		"more cells":     dims(2, 4000),
		"bad cell width": badWidth,
		"signed width 0": signedZero,
	} {
		if _, err := DecodeSketch(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeRange([]byte{0}); err == nil {
		t.Error("range with 0 bits accepted")
	}
	if _, err := DecodeRange(append([]byte{1}, body...)); err == nil {
		t.Error("range with a missing level accepted")
	}
}
