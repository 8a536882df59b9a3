package server

// parseUintArray decodes the bare-array ingest body — a JSON array of
// unsigned decimal integers, the shape bulk producers send — straight
// into dst[:0], without encoding/json's per-element reflection, which
// is most of what the ingest handler costs on such bodies. It accepts
// exactly that grammar: JSON whitespace, '[', numbers without sign, fraction,
// exponent or leading zeros that fit in a uint64, ',' separators, ']',
// trailing whitespace. For anything else it reports ok == false and the
// caller decodes with encoding/json, which accepts or rejects the body
// with its own semantics and error text.
func parseUintArray(dst []uint64, b []byte) (items []uint64, ok bool) {
	dst = dst[:0]
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '[' {
		return dst, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, skipSpace(b, i+1) == len(b)
	}
	for {
		start := i
		var v uint64
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if v > (1<<64-1-d)/10 {
				return dst, false // does not fit in a uint64
			}
			v = v*10 + d
		}
		if i == start || (b[start] == '0' && i-start > 1) {
			return dst, false // not a number, or a leading zero
		}
		dst = append(dst, v)
		i = skipSpace(b, i)
		if i == len(b) {
			return dst, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return dst, skipSpace(b, i+1) == len(b)
		default:
			return dst, false
		}
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}
