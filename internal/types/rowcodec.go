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

var errBadValue = errors.New("types: truncated or overlong value")

// AppendValue appends the encoding of c to buf.
func AppendValue(buf []byte, c Constant) []byte {
	switch c.kind {
	case KindInt:
		return binary.AppendVarint(append(buf, 'i'), c.i64())
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, 'd'), c.n)
	case KindString:
		return append(binary.AppendUvarint(append(buf, 's'), uint64(len(c.s))), c.s...)
	case KindBool:
		if c.n != 0 {
			return append(buf, 't')
		}
		return append(buf, 'f')
	default:
		return append(buf, 'z')
	}
}

// DecodeValue decodes the value at the front of b and reports how many
// bytes it occupied. Strings are copied out, so b may be reused.
func DecodeValue(b []byte) (Constant, int, error) {
	if len(b) == 0 {
		return Null, 0, errBadValue
	}
	switch b[0] {
	case 'z':
		return Null, 1, nil
	case 't', 'f':
		return Bool(b[0] == 't'), 1, nil
	case 'i':
		if v, n := binary.Varint(b[1:]); n > 0 {
			return Int(v), 1 + n, nil
		}
	case 'd':
		if len(b) >= 9 {
			return Constant{kind: KindFloat, n: binary.LittleEndian.Uint64(b[1:])}, 9, nil
		}
	case 's':
		if l, n := binary.Uvarint(b[1:]); n > 0 && l <= uint64(len(b)-1-n) {
			end := 1 + n + int(l)
			return Str(string(b[1+n : end])), end, nil
		}
	default:
		return Null, 0, fmt.Errorf("types: unknown value tag %q", b[0])
	}
	return Null, 0, errBadValue
}
