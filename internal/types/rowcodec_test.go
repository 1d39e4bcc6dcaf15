package types

import (
	"math"
	"testing"
)

// TestValueCodec: every kind decodes to itself and reports its own
// length, with other bytes behind it or not; every strict prefix of an
// encoding is an error, never a shorter value.
func TestValueCodec(t *testing.T) {
	for _, c := range []Constant{
		Null, Bool(true), Bool(false), Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(2), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)),
		Str(""), Str("a\nb\x00c"), Str(string(make([]byte, 300))),
	} {
		enc := AppendValues(nil, []Constant{c})
		for _, tail := range []string{"", "zi\x80"} {
			got, n, err := decodeOne(append(enc[:len(enc):len(enc)], tail...))
			if err != nil || n != len(enc) {
				t.Fatalf("%v %v: decoded %d of %d bytes, err %v", c.Kind(), c, n, len(enc), err)
			}
			if got.Kind() != c.Kind() || got.String() != c.String() ||
				math.Float64bits(got.AsFloat()) != math.Float64bits(c.AsFloat()) {
				t.Errorf("sent %v %v, got %v %v", c.Kind(), c, got.Kind(), got)
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if got, _, err := decodeOne(enc[:cut]); err == nil {
				t.Errorf("%v %v cut to %d of %d bytes decoded as %v", c.Kind(), c, cut, len(enc), got)
			}
		}
	}
	// Unknown tags, an overflowing varint, and overlong varints, which
	// the encoder never writes: 0 as two bytes, a one-byte string whose
	// length takes two.
	for _, bad := range [][]byte{{'q'}, {0}, {'i', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1},
		{'i', 0x80, 0x00}, {'i', 0x82, 0x80, 0x00}, {'s', 0x81, 0x00, 'x'}} {
		if got, _, err := decodeOne(bad); err == nil {
			t.Errorf("%q decoded as %v", bad, got)
		}
	}
}

// decodeOne decodes the value at the front of b and reports how many
// bytes it took.
func decodeOne(b []byte) (Constant, int, error) {
	var c [1]Constant
	rest, err := DecodeValues(c[:], b)
	return c[0], len(b) - len(rest), err
}
