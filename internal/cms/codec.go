package cms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The version-1 checkpoint body of a table, little-endian:
//
//	d u32, w u32, m i64, hash seed i64, rolling seed i64
//	cells, row-major, in blocks of 16 (the last may be shorter): one
//	width byte, then each cell in that many bytes
//
// The width byte's low bits are the width, 0, 1, 2, 4 or 8; its top bit
// (signedBlock) says the block holds a negative cell and every cell is
// zigzag-coded, and otherwise cells are plain unsigned. Count-min cells
// are never negative, so they keep the full byte range (zigzag alone
// would widen every block holding a count in 128–255). A block's width is
// the smallest that holds its largest coded value, so equal tables encode
// to equal bytes. Rows are addressed by the derived scheme (the only one
// since version 1 exists, so no scheme tag).

const (
	tableFixed  = 32 // bytes before the cells
	blockCells  = 16
	signedBlock = 0x80
)

var errShortBody = errors.New("cms: checkpoint body ends early")

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendBody appends the table's version-1 checkpoint body to dst.
func (t *table) AppendBody(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.d))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.w))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.m))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.hashSeed))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.seed))
	var vals [blockCells]uint64
	for cells := t.cells; len(cells) > 0; {
		blk := cells[:min(blockCells, len(cells))]
		cells = cells[len(blk):]
		var raw uint64
		for _, v := range blk {
			raw |= uint64(v)
		}
		var or uint64
		signed := int64(raw) < 0 // some cell is negative
		for i, v := range blk {
			vals[i] = uint64(v)
			if signed {
				vals[i] = zigzag(v)
			}
			or |= vals[i]
		}
		width := 0
		switch n := bits.Len64(or); {
		case n > 32:
			width = 8
		case n > 16:
			width = 4
		case n > 8:
			width = 2
		case n > 0:
			width = 1
		}
		at := len(dst) + 1
		dst = append(dst, make([]byte, 1+width*len(blk))...)
		dst[at-1] = byte(width)
		if signed {
			dst[at-1] |= signedBlock
		}
		out := dst[at:]
		switch width {
		case 1:
			for i := range blk {
				out[i] = byte(vals[i])
			}
		case 2:
			for i := range blk {
				binary.LittleEndian.PutUint16(out[2*i:], uint16(vals[i]))
			}
		case 4:
			for i := range blk {
				binary.LittleEndian.PutUint32(out[4*i:], uint32(vals[i]))
			}
		case 8:
			for i := range blk {
				binary.LittleEndian.PutUint64(out[8*i:], vals[i])
			}
		}
	}
	return dst
}

// decodeTable reads one table body from the front of b, straight into
// the new table's cells, and returns the bytes after it.
func decodeTable(b []byte) (table, []byte, error) {
	if len(b) < tableFixed {
		return table{}, nil, errShortBody
	}
	d, w := int64(binary.LittleEndian.Uint32(b)), int64(binary.LittleEndian.Uint32(b[4:]))
	if d < 1 || w < 1 || d > maxStateDim || w > maxStateDim {
		return table{}, nil, fmt.Errorf("cms: bad state dims %dx%d", d, w)
	}
	m := int64(binary.LittleEndian.Uint64(b[8:]))
	hashSeed := int64(binary.LittleEndian.Uint64(b[16:]))
	seed := int64(binary.LittleEndian.Uint64(b[24:]))
	b = b[tableFixed:]
	// Every block takes at least its width byte, so this bounds the
	// allocation below by a multiple of the input.
	if blocks := (d*w + blockCells - 1) / blockCells; blocks > int64(len(b)) {
		return table{}, nil, fmt.Errorf("cms: %dx%d cells need %d blocks, %d bytes remain", d, w, blocks, len(b))
	}
	t := newTable(int(d), int(w), hashSeed)
	t.m, t.seed = m, seed
	for cells := t.cells; len(cells) > 0; {
		blk := cells[:min(blockCells, len(cells))]
		cells = cells[len(blk):]
		if len(b) == 0 {
			return table{}, nil, errShortBody
		}
		code := b[0]
		width := int(code &^ signedBlock)
		b = b[1:]
		if width > 8 || width&(width-1) != 0 || code == signedBlock {
			return table{}, nil, fmt.Errorf("cms: bad cell width byte %#x", code)
		}
		if len(b) < width*len(blk) {
			return table{}, nil, errShortBody
		}
		switch width {
		case 1:
			for i := range blk {
				blk[i] = int64(b[i])
			}
		case 2:
			for i := range blk {
				blk[i] = int64(binary.LittleEndian.Uint16(b[2*i:]))
			}
		case 4:
			for i := range blk {
				blk[i] = int64(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case 8:
			for i := range blk {
				blk[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		if code&signedBlock != 0 {
			for i, v := range blk {
				blk[i] = unzigzag(uint64(v))
			}
		}
		b = b[width*len(blk):]
	}
	return t, b, nil
}

// decodeWhole decodes a body that must hold exactly one table.
func decodeWhole(b []byte) (table, error) {
	t, rest, err := decodeTable(b)
	if err != nil {
		return table{}, err
	}
	if len(rest) != 0 {
		return table{}, fmt.Errorf("cms: %d bytes after the cells", len(rest))
	}
	return t, nil
}

// DecodeSketch rebuilds a count-min sketch from its version-1 body.
func DecodeSketch(b []byte) (*Sketch, error) {
	t, err := decodeWhole(b)
	if err != nil {
		return nil, err
	}
	return &Sketch{t}, nil
}

// DecodeCountSketch rebuilds a count-sketch from its version-1 body.
func DecodeCountSketch(b []byte) (*CountSketch, error) {
	t, err := decodeWhole(b)
	if err != nil {
		return nil, err
	}
	return &CountSketch{table: t}, nil
}

// AppendBody appends the range sketch's version-1 checkpoint body to
// dst: bits as one byte, then the bits+1 level tables.
func (r *RangeSketch) AppendBody(dst []byte) []byte {
	dst = append(dst, byte(r.bits))
	for _, s := range r.levels {
		dst = s.AppendBody(dst)
	}
	return dst
}

// DecodeRange rebuilds a range sketch from its version-1 body.
func DecodeRange(b []byte) (*RangeSketch, error) {
	if len(b) < 1 {
		return nil, errShortBody
	}
	r := &RangeSketch{bits: int(b[0])}
	if r.bits < 1 || r.bits > 63 {
		return nil, fmt.Errorf("cms: bad state bits %d", r.bits)
	}
	b = b[1:]
	r.levels = make([]*Sketch, r.bits+1)
	for l := range r.levels {
		t, rest, err := decodeTable(b)
		if err != nil {
			return nil, fmt.Errorf("cms: level %d: %w", l, err)
		}
		r.levels[l], b = &Sketch{t}, rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cms: %d bytes after the last level", len(b))
	}
	return r, nil
}
