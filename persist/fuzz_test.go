package persist

// Native fuzz targets for the durability parsers, mirroring the
// checkpoint-surface targets in the root package. The contract is the
// same: malformed frames must produce an error — never a panic, and
// never an allocation driven by an unvalidated decoded length. For the
// segment scanner the declared size bounds every payload allocation, so
// a frame claiming gigabytes against a kilobyte of input fails before
// allocating.

import (
	"bytes"
	"testing"
)

// fuzzSegmentBytes builds a small well-formed segment image to seed the
// corpus.
func fuzzSegmentBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	for seq := uint64(1); seq <= 3; seq++ {
		buf.Write(appendRecord(nil, seq, []uint64{seq, seq * 10, seq * 100}))
	}
	return buf.Bytes()
}

func FuzzSegmentScan(f *testing.F) {
	seed := fuzzSegmentBytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // torn record
	f.Add(seed[:len(segMagic)])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a segment"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		var records int
		valid, lastSeq, scanErr := scanSegment(bytes.NewReader(data), int64(len(data)), 1, func(seq uint64, items []uint64) error {
			records++
			// The scanner promises every delivered payload fit the input.
			if 8*len(items) > len(data) {
				t.Fatalf("record %d larger than input", seq)
			}
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid extent %d out of range [0, %d]", valid, len(data))
		}
		if scanErr == nil && lastSeq != uint64(records) {
			t.Fatalf("clean scan delivered %d records but lastSeq %d", records, lastSeq)
		}
		if scanErr != nil && !isTorn(scanErr) {
			t.Fatalf("scan returned non-framing error with a nil-error callback: %v", scanErr)
		}
	})
}

func FuzzSnapshotDecode(f *testing.F) {
	good := encodeSnapshot(42, []byte("envelope bytes"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("AGGSNAP1 and then junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip()
		}
		seq, payload, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatal("payload larger than input")
		}
		re := encodeSnapshot(seq, payload)
		if !bytes.Equal(re, data) {
			t.Fatal("accepted snapshot does not round-trip")
		}
	})
}
