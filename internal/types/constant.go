// Package types provides the value system shared by every layer of the
// DISCO reproduction: the polymorphic Constant used to exchange statistics
// between wrappers and the mediator (paper §3.2), tuple rows, and row
// schemas. Constants are immutable value objects.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Constant.
type Kind uint8

// The supported constant kinds. The paper's IDL subset supports elementary
// types (long, double, string, boolean); Null represents an absent
// statistic (for instance a wrapper that does not know an attribute's Min).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Constant is a polymorphic immutable value. The zero value is Null.
// It plays the role of the paper's "special polymorphic Constant object"
// used to encode attribute minima and maxima of arbitrary type.
//
// The representation is 32 bytes: one 64-bit payload holds an int's
// two's-complement bits, a float's IEEE 754 bits, or 0/1 for a bool, so
// every row, arena slab and aggregate state stays small.
type Constant struct {
	kind Kind
	n    uint64
	s    string
}

// Null is the absent value.
var Null = Constant{}

// Int builds an integer constant.
func Int(v int64) Constant { return Constant{kind: KindInt, n: uint64(v)} }

// Float builds a floating-point constant.
func Float(v float64) Constant { return Constant{kind: KindFloat, n: math.Float64bits(v)} }

// String builds a string constant.
func Str(v string) Constant { return Constant{kind: KindString, s: v} }

// Bool builds a boolean constant.
func Bool(v bool) Constant {
	if v {
		return Constant{kind: KindBool, n: 1}
	}
	return Constant{kind: KindBool}
}

// Kind reports the dynamic type of c.
func (c Constant) Kind() Kind { return c.kind }

// IsNull reports whether c is the absent value.
func (c Constant) IsNull() bool { return c.kind == KindNull }

// IsNumeric reports whether c is an int or float.
func (c Constant) IsNumeric() bool { return c.kind == KindInt || c.kind == KindFloat }

func (c Constant) i64() int64   { return int64(c.n) }
func (c Constant) f64() float64 { return math.Float64frombits(c.n) }

// AsInt returns the integer value of c. Floats are truncated, booleans map
// to 0/1, and anything else returns 0.
func (c Constant) AsInt() int64 {
	switch c.kind {
	case KindInt, KindBool:
		return c.i64()
	case KindFloat:
		return int64(c.f64())
	default:
		return 0
	}
}

// AsFloat returns the numeric value of c as a float64. Strings and Null
// return 0; booleans map to 0/1.
func (c Constant) AsFloat() float64 {
	switch c.kind {
	case KindInt, KindBool:
		return float64(c.i64())
	case KindFloat:
		return c.f64()
	default:
		return 0
	}
}

// AsString returns the string value, or the textual rendering for other
// kinds.
func (c Constant) AsString() string {
	if c.kind == KindString {
		return c.s
	}
	return c.String()
}

// AsBool returns the boolean value; numeric values are true when nonzero,
// strings when non-empty, Null is false.
func (c Constant) AsBool() bool {
	switch c.kind {
	case KindBool, KindInt:
		return c.n != 0
	case KindFloat:
		return c.f64() != 0
	case KindString:
		return c.s != ""
	default:
		return false
	}
}

// String renders the constant for plan and rule printing.
func (c Constant) String() string {
	switch c.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(c.i64(), 10)
	case KindFloat:
		return strconv.FormatFloat(c.f64(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(c.s)
	case KindBool:
		return strconv.FormatBool(c.n != 0)
	default:
		return "?"
	}
}

// Equal reports deep value equality. Int and Float compare by exact
// numeric value, so Int(3).Equal(Float(3)) is true — the rule matcher
// relies on this when unifying predicate constants — while two ints
// beyond 2^53 that round to the same float stay distinct. NaN equals
// nothing, as under float comparison.
func (c Constant) Equal(o Constant) bool {
	if c.IsNumeric() && o.IsNumeric() {
		order, ordered := numCompare(c, o)
		return ordered && order == 0
	}
	if c.kind != o.kind {
		return false
	}
	switch c.kind {
	case KindNull:
		return true
	case KindString:
		return c.s == o.s
	case KindBool:
		return c.n == o.n
	default:
		return false
	}
}

// Compare orders two constants: -1 when c < o, 0 when equal, +1 when
// greater. Numeric kinds compare by exact value (a NaN ties with every
// number); strings lexically; booleans false < true. Null sorts before
// everything. Mixed incomparable kinds order by kind tag so sorting is
// total and deterministic.
func (c Constant) Compare(o Constant) int {
	if c.IsNumeric() && o.IsNumeric() {
		order, _ := numCompare(c, o)
		return order
	}
	if c.kind != o.kind {
		return cmp.Compare(c.kind, o.kind)
	}
	switch c.kind {
	case KindString:
		return strings.Compare(c.s, o.s)
	case KindBool:
		return cmp.Compare(c.n, o.n)
	}
	return 0
}

// numCompare orders two numeric constants by exact value: ints as int64,
// floats as float64, an int against a float without rounding the int.
// ordered is false when a NaN is involved; the order then reports 0.
func numCompare(a, b Constant) (order int, ordered bool) {
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.i64(), b.i64()), true
	case a.kind == KindFloat && b.kind == KindFloat:
		x, y := a.f64(), b.f64()
		if x != x || y != y {
			return 0, false
		}
		return cmp.Compare(x, y), true
	case a.kind == KindInt:
		return cmpIntFloat(a.i64(), b.f64())
	default:
		order, ordered = cmpIntFloat(b.i64(), a.f64())
		return -order, ordered
	}
}

// cmpIntFloat orders an int64 against a float64 exactly. Rounding i to a
// float is monotone, so a strict order between float64(i) and f is the
// order of the exact values; only on a tie is f an integer close enough
// to i that the two must be compared as integers.
func cmpIntFloat(i int64, f float64) (int, bool) {
	if f != f {
		return 0, false
	}
	if order := cmp.Compare(float64(i), f); order != 0 {
		return order, true
	}
	if f >= 1<<63 { // float64(i) rounded up to 2^63, past every int64
		return -1, true
	}
	return cmp.Compare(i, int64(f)), true
}

// Less reports c < o under Compare.
func (c Constant) Less(o Constant) bool { return c.Compare(o) < 0 }

// Fraction locates v within [lo, hi], returning a value in [0, 1]. It is
// the primitive behind uniform-distribution selectivity estimation for
// range predicates: sel(A < v) = (v - Min) / (Max - Min). For strings it
// uses a prefix-based 64-bit embedding. Returns 0.5 when the bounds are
// degenerate or incomparable.
func Fraction(v, lo, hi Constant) float64 {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return 0.5
	}
	if v.IsNumeric() && lo.IsNumeric() && hi.IsNumeric() {
		l, h, x := lo.AsFloat(), hi.AsFloat(), v.AsFloat()
		if h <= l {
			return 0.5
		}
		return clamp01((x - l) / (h - l))
	}
	if v.kind == KindString && lo.kind == KindString && hi.kind == KindString {
		l, h, x := stringEmbed(lo.s), stringEmbed(hi.s), stringEmbed(v.s)
		if h <= l {
			return 0.5
		}
		return clamp01((x - l) / (h - l))
	}
	return 0.5
}

// stringEmbed maps a string to a float preserving lexicographic order for
// the first eight bytes.
func stringEmbed(s string) float64 {
	var acc uint64
	for i := 0; i < 8; i++ {
		acc <<= 8
		if i < len(s) {
			acc |= uint64(s[i])
		}
	}
	return float64(acc)
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
