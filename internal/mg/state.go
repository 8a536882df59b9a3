package mg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hist"
)

// State is the gob form of a Summary in checkpoints written before the
// framed format, which the legacy reader still restores.
type State struct {
	CapS    int
	M       int64
	Seed    int64
	Entries []hist.Entry
}

// FromState reconstructs a summary from its legacy form, validating
// invariants.
func FromState(st State) (*Summary, error) {
	if err := validate(int64(st.CapS), st.M, len(st.Entries)); err != nil {
		return nil, err
	}
	g := NewWithCapacity(st.CapS)
	g.m = st.M
	g.seed = st.Seed
	g.entries = append([]hist.Entry(nil), st.Entries...)
	g.reindex()
	return g, nil
}

func validate(capS, m int64, n int) error {
	if capS < 1 {
		return fmt.Errorf("mg: state capacity %d < 1", capS)
	}
	if int64(n) > capS {
		return fmt.Errorf("mg: state holds %d > S=%d entries", n, capS)
	}
	if m < 0 {
		return fmt.Errorf("mg: state stream length %d < 0", m)
	}
	return nil
}

// bodyFixed is the size of a version-1 body before its entries.
const bodyFixed = 28

// AppendBody appends the summary's version-1 checkpoint body to dst,
// little-endian: capacity i64, m i64, seed i64, n u32, then n entries,
// each a uvarint item and a zigzag varint frequency.
func (g *Summary) AppendBody(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.capS))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.m))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.seed))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.entries)))
	for _, e := range g.entries {
		dst = binary.AppendUvarint(dst, e.Item)
		dst = binary.AppendVarint(dst, e.Freq)
	}
	return dst
}

var errShortBody = errors.New("mg: checkpoint body ends early")

// DecodeBody rebuilds a summary from its version-1 body, validating it
// as FromState does.
func DecodeBody(b []byte) (*Summary, error) {
	if len(b) < bodyFixed {
		return nil, errShortBody
	}
	capS := int64(binary.LittleEndian.Uint64(b))
	m := int64(binary.LittleEndian.Uint64(b[8:]))
	seed := int64(binary.LittleEndian.Uint64(b[16:]))
	n := int(binary.LittleEndian.Uint32(b[24:]))
	b = b[bodyFixed:]
	if err := validate(capS, m, n); err != nil {
		return nil, err
	}
	if n > len(b)/2 { // an entry takes at least two bytes
		return nil, errShortBody
	}
	g := NewWithCapacity(int(capS))
	g.m, g.seed = m, seed
	g.entries = make([]hist.Entry, n)
	for i := range g.entries {
		item, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errShortBody
		}
		freq, k2 := binary.Varint(b[k:])
		if k2 <= 0 {
			return nil, errShortBody
		}
		g.entries[i] = hist.Entry{Item: item, Freq: freq}
		b = b[k+k2:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("mg: %d bytes after the entries", len(b))
	}
	g.reindex()
	return g, nil
}
