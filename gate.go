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
//   - the checkpoint framing (marshalAgg/unmarshalAgg), so each type's
//     BinaryMarshaler/BinaryUnmarshaler is a two-liner binding its
//     internal body encoder and decoder.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Every checkpoint is one frame: a fixed little-endian header, then the
// kind's body. The header is
//
//	offset  size  field
//	0       4     magic 0x89 'S' 'A' 'G' (never the first byte of a gob stream)
//	4       2     envelope version (1)
//	6       1     kind code (kindCodes)
//	7       1     body version (1 for every kind)
//	8       8     stream length, int64
//	16      8     body length in bytes
//	24      4     CRC-32C of header bytes 0–23 and the body
//
// A kind changes its body by bumping its body version; the header stays.
// Pipeline and Sharded bodies hold their members' frames inline.
const (
	headerSize      = 28
	envelopeVersion = 1
	bodyVersion     = 1
)

var frameMagic = [4]byte{0x89, 'S', 'A', 'G'}

// crcTable is CRC-32C (Castagnoli), the WAL's checksum; hash/crc32
// shares one Castagnoli table per process.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// kindCodes maps a header's kind byte to its Kind. Codes are part of the
// format: append, never renumber.
var kindCodes = [...]Kind{
	1: KindBasicCounter,
	2: KindWindowSum,
	3: KindFreq,
	4: KindSlidingFreq,
	5: KindCountMin,
	6: KindCountMinRange,
	7: KindCountSketch,
	8: KindSharded,
	9: kindPipeline,
}

func kindCode(kind Kind) (byte, bool) {
	for code, k := range kindCodes {
		if k == kind && k != "" {
			return byte(code), true
		}
	}
	return 0, false
}

// framed reports whether data starts with the frame magic; anything else
// goes to the legacy gob reader.
func framed(data []byte) bool { return bytes.HasPrefix(data, frameMagic[:]) }

// frame is a parsed header; body aliases the input.
type frame struct {
	kind      Kind
	streamLen int64
	body      []byte
}

// appendFrame appends one frame of kind: the header, then what appendBody
// appends, then the body length and CRC filled in behind it.
func appendFrame(dst []byte, kind Kind, streamLen int64, appendBody func([]byte) ([]byte, error)) ([]byte, error) {
	code, ok := kindCode(kind)
	if !ok {
		return nil, fmt.Errorf("%w: kind %q has no checkpoint code", ErrBadParam, kind)
	}
	start := len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, envelopeVersion)
	dst = append(dst, code, bodyVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(streamLen))
	dst = append(dst, make([]byte, headerSize-16)...)
	dst, err := appendBody(dst)
	if err != nil {
		return nil, fmt.Errorf("streamagg: encoding %s state: %w", kind, err)
	}
	hdr, body := dst[start:start+headerSize], dst[start+headerSize:]
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[24:], frameCRC(hdr, body))
	return dst, nil
}

func frameCRC(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:24], crcTable), crcTable, body)
}

// readHeader checks the header at the start of data and slices out the
// body, without copying, allocating or checking the CRC; rest is what
// follows the body.
func readHeader(data []byte) (f frame, rest []byte, err error) {
	if len(data) < headerSize {
		return f, nil, fmt.Errorf("streamagg: malformed checkpoint: %d bytes, shorter than its %d-byte header", len(data), headerSize)
	}
	hdr := data[:headerSize]
	if !framed(hdr) {
		return f, nil, fmt.Errorf("streamagg: malformed checkpoint: bad magic % x", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != envelopeVersion {
		return f, nil, fmt.Errorf("streamagg: checkpoint envelope version %d is not supported (want %d)", v, envelopeVersion)
	}
	if int(hdr[6]) >= len(kindCodes) || kindCodes[hdr[6]] == "" {
		return f, nil, fmt.Errorf("%w: checkpoint has unknown kind code %d", ErrBadParam, hdr[6])
	}
	f.kind = kindCodes[hdr[6]]
	if hdr[7] != bodyVersion {
		return f, nil, fmt.Errorf("streamagg: %s checkpoint body version %d is not supported (want %d)", f.kind, hdr[7], bodyVersion)
	}
	f.streamLen = int64(binary.LittleEndian.Uint64(hdr[8:]))
	n := binary.LittleEndian.Uint64(hdr[16:])
	if n > uint64(len(data)-headerSize) {
		return f, nil, fmt.Errorf("streamagg: malformed %s checkpoint: body of %d bytes, %d remain", f.kind, n, len(data)-headerSize)
	}
	f.body = data[headerSize : headerSize+int(n)]
	return f, data[headerSize+int(n):], nil
}

// open parses data as exactly one frame of kind and checks its CRC.
func open(kind Kind, data []byte) (frame, error) {
	f, rest, err := readHeader(data)
	if err != nil {
		return f, err
	}
	if f.kind != kind {
		return f, fmt.Errorf("%w: checkpoint is for %q, not %q", ErrBadParam, f.kind, kind)
	}
	if len(rest) != 0 {
		return f, fmt.Errorf("streamagg: malformed %s checkpoint: %d bytes after the body", kind, len(rest))
	}
	if frameCRC(data, f.body) != binary.LittleEndian.Uint32(data[24:]) {
		return f, fmt.Errorf("streamagg: malformed %s checkpoint: checksum mismatch", kind)
	}
	return f, nil
}

// marshalAgg frames an aggregate's body under the read lock, so the body
// and the stream position are of one batch boundary.
func marshalAgg(g *gate, kind Kind, appendBody func([]byte) ([]byte, error)) ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return appendFrame(nil, kind, g.streamLen, appendBody)
}

// unmarshalAgg restores an aggregate from a checkpoint: decode turns a
// framed body into the implementation, restore turns a legacy gob state
// into it (checkpoint_legacy.go). The result and the stream position are
// installed under the write lock.
func unmarshalAgg[T, S any](g *gate, kind Kind, data []byte, decode func([]byte) (T, error), restore func(S) (T, error), install func(T)) error {
	var (
		impl      T
		streamLen int64
		err       error
	)
	if framed(data) {
		var f frame
		if f, err = open(kind, data); err != nil {
			return err
		}
		if impl, err = decode(f.body); err != nil {
			return fmt.Errorf("streamagg: decoding %s state: %w", kind, err)
		}
		streamLen = f.streamLen
	} else if impl, streamLen, err = openLegacyAgg(kind, data, restore); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	install(impl)
	g.streamLen = streamLen
	return nil
}
