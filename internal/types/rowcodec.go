package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The value codec: the one place a Constant becomes bytes. Spill files
// (vexec) and the row blocks of the wire protocol (proto) carry values in
// this form and differ only in how they frame rows around it. A value is
// a tag byte and its payload, so kind and all 64 bits survive:
//
//	'z'        null
//	'i'        int, zigzag varint
//	'd'        float, 8 little-endian bytes of the IEEE 754 bits
//	's'        string, uvarint length then the bytes
//	't' / 'f'  bool
//
// A varint must be minimal, as the encoder writes it, so each value has
// one encoding and decoded values re-encode to the bytes they came from.

var errBadValue = errors.New("types: truncated or overlong value")

// AppendValues appends the encoding of each of vals to buf.
func AppendValues(buf []byte, vals []Constant) []byte {
	for _, c := range vals {
		switch c.kind {
		case KindInt:
			buf = binary.AppendVarint(append(buf, 'i'), c.i64())
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(append(buf, 'd'), c.n)
		case KindString:
			buf = append(binary.AppendUvarint(append(buf, 's'), uint64(len(c.s))), c.s...)
		case KindBool:
			if c.n != 0 {
				buf = append(buf, 't')
			} else {
				buf = append(buf, 'f')
			}
		default:
			buf = append(buf, 'z')
		}
	}
	return buf
}

// DecodeValues fills dst with the values at the front of b and returns
// the bytes behind them. Strings are copied out, so b may be reused.
// Truncated or overlong values are errors.
func DecodeValues(dst []Constant, b []byte) ([]byte, error) {
	for i := range dst {
		if len(b) == 0 {
			return nil, errBadValue
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case 'z':
			dst[i] = Null
		case 't', 'f':
			dst[i] = Bool(tag == 't')
		case 'i':
			u, n := binary.Uvarint(b)
			if !MinimalVarint(b, n) {
				return nil, errBadValue
			}
			dst[i], b = Constant{kind: KindInt, n: u>>1 ^ -(u & 1)}, b[n:] // zigzag
		case 'd':
			if len(b) < 8 {
				return nil, errBadValue
			}
			dst[i], b = Constant{kind: KindFloat, n: binary.LittleEndian.Uint64(b)}, b[8:]
		case 's':
			l, n := binary.Uvarint(b)
			if !MinimalVarint(b, n) || l > uint64(len(b)-n) {
				return nil, errBadValue
			}
			end := n + int(l)
			dst[i], b = Str(string(b[n:end])), b[end:]
		default:
			return nil, fmt.Errorf("types: unknown value tag %q", tag)
		}
	}
	return b, nil
}

// MinimalVarint reports whether the n bytes at the front of b, as read by
// binary.Uvarint or binary.Varint, are a varint in its shortest form: n
// is positive and the last byte, the highest seven bits, is not zero
// unless it is the only one.
func MinimalVarint(b []byte, n int) bool {
	return n == 1 || n > 1 && b[n-1] != 0
}
