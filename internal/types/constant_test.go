package types

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConstantKinds(t *testing.T) {
	cases := []struct {
		c    Constant
		kind Kind
		str  string
	}{
		{Null, KindNull, "null"},
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("hi"), KindString, `"hi"`},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.c.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.c, c.c.Kind(), c.kind)
		}
		if got := c.c.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestConstantConversions(t *testing.T) {
	if Int(3).AsFloat() != 3.0 {
		t.Error("Int.AsFloat")
	}
	if Float(3.9).AsInt() != 3 {
		t.Error("Float.AsInt should truncate")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Error("Bool.AsInt")
	}
	if Str("x").AsFloat() != 0 {
		t.Error("Str.AsFloat should be 0")
	}
	if Str("x").AsString() != "x" {
		t.Error("Str.AsString")
	}
	if Int(5).AsString() != "5" {
		t.Error("Int.AsString")
	}
	if !Int(1).AsBool() || Int(0).AsBool() {
		t.Error("Int.AsBool")
	}
	if Null.AsBool() {
		t.Error("Null.AsBool should be false")
	}
}

func TestConstantEqualNumericCrossKind(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("Int should not equal Str")
	}
	if !Null.Equal(Null) {
		t.Error("Null equals Null")
	}
	if Null.Equal(Int(0)) {
		t.Error("Null should not equal Int(0)")
	}
}

func TestConstantCompare(t *testing.T) {
	cases := []struct {
		a, b Constant
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(1), Float(1.5), -1},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(false), 1},
		{Null, Int(0), -1}, // null sorts first by kind tag
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Less over ints.
func TestConstantCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		return x.Compare(y) == -y.Compare(x) && x.Less(y) == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fraction is within [0,1] and monotone in v for numerics.
func TestFractionProperties(t *testing.T) {
	f := func(v1, v2 int32) bool {
		lo, hi := Int(0), Int(1000)
		a := Fraction(Int(int64(v1)%1000), lo, hi)
		b := Fraction(Int(int64(v2)%1000), lo, hi)
		if a < 0 || a > 1 || b < 0 || b > 1 {
			return false
		}
		x, y := int64(v1)%1000, int64(v2)%1000
		if x < y && a > b {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionEdge(t *testing.T) {
	if got := Fraction(Int(5), Int(0), Int(10)); got != 0.5 {
		t.Errorf("Fraction mid = %v, want 0.5", got)
	}
	if got := Fraction(Int(-5), Int(0), Int(10)); got != 0 {
		t.Errorf("Fraction below lo = %v, want 0", got)
	}
	if got := Fraction(Int(50), Int(0), Int(10)); got != 1 {
		t.Errorf("Fraction above hi = %v, want 1", got)
	}
	if got := Fraction(Int(5), Int(7), Int(7)); got != 0.5 {
		t.Errorf("degenerate bounds = %v, want 0.5", got)
	}
	if got := Fraction(Null, Int(0), Int(1)); got != 0.5 {
		t.Errorf("null v = %v, want 0.5", got)
	}
	// string fraction ordering
	a := Fraction(Str("Adiba"), Str("Adiba"), Str("Valduriez"))
	b := Fraction(Str("Martin"), Str("Adiba"), Str("Valduriez"))
	c := Fraction(Str("Valduriez"), Str("Adiba"), Str("Valduriez"))
	if !(a <= b && b <= c && a == 0 && c == 1) {
		t.Errorf("string fractions not ordered: %v %v %v", a, b, c)
	}
}

func TestFractionNaNSafe(t *testing.T) {
	if got := Fraction(Float(math.NaN()), Int(0), Int(1)); got != 0 {
		t.Errorf("NaN fraction = %v, want clamped 0", got)
	}
}

// Ints compare as int64 and an int against a float by exact value, so
// distinct integers past 2^53 (where float64 stops being exact) never
// compare equal. Each case lists Compare(a, b); Equal is Compare == 0.
func TestConstantCompareExactPast2p53(t *testing.T) {
	const p53, p63 = 1 << 53, 1 << 63
	cases := []struct {
		a, b Constant
		want int
	}{
		{Int(p53 + 1), Int(p53), 1},
		{Int(p53), Int(p53 + 1), -1},
		{Int(-p53 - 1), Int(-p53), -1},
		{Int(p53 + 1), Float(p53), 1},
		{Float(p53), Int(p53 + 1), -1},
		{Int(p53), Float(p53), 0},
		{Int(-p53 - 1), Float(-p53), -1},
		{Int(p53 + 1), Float(p53 + 2), -1},
		{Int(math.MaxInt64), Float(p63), -1},
		{Float(p63), Int(math.MaxInt64), 1},
		{Int(math.MinInt64), Float(-p63), 0},
		{Int(math.MinInt64 + 1), Float(-p63), 1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Int(3), Float(3), 0},
		{Int(3), Float(3.5), -1},
		{Int(-3), Float(-3.5), 1},
		{Int(0), Float(math.Inf(1)), -1},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
		if got := c.a.Equal(c.b); got != (c.want == 0) {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want == 0)
		}
	}
}

// The payload holds float bits, so -0 and +0 (and NaNs) differ in their
// struct bits; Equal and Compare still follow float comparison, as they
// always have: -0 == 0, and NaN equals nothing yet ties under Compare.
func TestConstantSignedZeroAndNaN(t *testing.T) {
	nan := Float(math.NaN())
	cases := []struct {
		a, b  Constant
		equal bool
		cmp   int
	}{
		{Float(math.Copysign(0, -1)), Float(0), true, 0},
		{Float(math.Copysign(0, -1)), Int(0), true, 0},
		{nan, nan, false, 0},
		{nan, Float(1), false, 0},
		{nan, Int(1), false, 0},
		{Int(1), nan, false, 0},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
	}
	if got := Float(math.Copysign(0, -1)).String(); got != "-0" {
		t.Errorf("-0 renders as %q", got)
	}
}

// A Constant is 32 bytes: the kind, one 64-bit payload and a string.
func TestConstantSize(t *testing.T) {
	if got := unsafe.Sizeof(Constant{}); got != 32 {
		t.Errorf("sizeof(Constant) = %d, want 32", got)
	}
}
