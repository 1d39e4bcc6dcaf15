package stats

import (
	"math"
	"testing"
	"testing/quick"

	"disco/internal/types"
)

func TestExtentCountPage(t *testing.T) {
	e := ExtentStats{CountObject: 70000, TotalSize: 4096 * 1000, ObjectSize: 56}
	if got := e.CountPage(4096); got != 1000 {
		t.Errorf("CountPage = %d, want 1000", got)
	}
	if got := (ExtentStats{TotalSize: 1}).CountPage(4096); got != 1 {
		t.Errorf("round-up CountPage = %d, want 1", got)
	}
	if got := e.CountPage(0); got != 0 {
		t.Errorf("zero page size = %d, want 0", got)
	}
}

func TestCmpOpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b types.Constant
		want bool
	}{
		{CmpEQ, types.Int(1), types.Int(1), true},
		{CmpEQ, types.Int(1), types.Int(2), false},
		{CmpNE, types.Int(1), types.Int(2), true},
		{CmpLT, types.Int(1), types.Int(2), true},
		{CmpLE, types.Int(2), types.Int(2), true},
		{CmpGT, types.Int(3), types.Int(2), true},
		{CmpGE, types.Int(2), types.Int(2), true},
		{CmpGE, types.Int(1), types.Int(2), false},
		{CmpLT, types.Str("a"), types.Str("b"), true},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

// Property: Flip swaps operands: a op b == b Flip(op) a.
func TestCmpOpFlip(t *testing.T) {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	f := func(a, b int16) bool {
		x, y := types.Int(int64(a)), types.Int(int64(b))
		for _, op := range ops {
			if op.Eval(x, y) != op.Flip().Eval(y, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformSelectivity(t *testing.T) {
	a := AttributeStats{
		Indexed:       true,
		CountDistinct: 10000,
		Min:           types.Int(0),
		Max:           types.Int(10000),
	}
	if got := a.Selectivity(CmpEQ, types.Int(5)); got != 1.0/10000 {
		t.Errorf("eq selectivity = %v", got)
	}
	if got := a.Selectivity(CmpLT, types.Int(2500)); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("lt selectivity = %v, want 0.25", got)
	}
	if got := a.Selectivity(CmpGT, types.Int(7500)); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("gt selectivity = %v, want 0.25", got)
	}
	ne := a.Selectivity(CmpNE, types.Int(5))
	if math.Abs(ne-(1-1.0/10000)) > 1e-9 {
		t.Errorf("ne selectivity = %v", ne)
	}
}

func TestSelectivityDefaults(t *testing.T) {
	var a AttributeStats // no stats at all
	if got := a.Selectivity(CmpEQ, types.Int(1)); got != 0.1 {
		t.Errorf("default eq = %v, want 0.1", got)
	}
	// Range with null min/max falls back through Fraction's 0.5.
	if got := a.Selectivity(CmpLT, types.Int(1)); got != 0.5 {
		t.Errorf("default lt = %v, want 0.5", got)
	}
}

func TestJoinSelectivity(t *testing.T) {
	l := AttributeStats{CountDistinct: 100}
	r := AttributeStats{CountDistinct: 1000}
	if got := JoinSelectivity(l, r); got != 1.0/1000 {
		t.Errorf("join selectivity = %v, want 1/1000", got)
	}
	if got := JoinSelectivity(AttributeStats{}, AttributeStats{}); got != 0.01 {
		t.Errorf("default join selectivity = %v, want 0.01", got)
	}
}

func TestYaoExact(t *testing.T) {
	// Fetching everything touches every page.
	if got := Yao(70000, 1000, 70000); got != 1 {
		t.Errorf("Yao(all) = %v, want 1", got)
	}
	// Fetching nothing touches nothing.
	if got := Yao(70000, 1000, 0); got != 0 {
		t.Errorf("Yao(0) = %v, want 0", got)
	}
	// One object touches ~1/m of pages.
	got := Yao(70000, 1000, 1)
	if math.Abs(got-1.0/1000) > 1e-6 {
		t.Errorf("Yao(1) = %v, want ~0.001", got)
	}
}

// Property: Yao is monotone nondecreasing in k and within [0, 1]; the
// exponential approximation is close to the exact value for the paper's
// parameters.
func TestYaoProperties(t *testing.T) {
	n, m := int64(70000), int64(1000)
	prev := 0.0
	for k := int64(0); k <= n; k += 700 {
		y := Yao(n, m, k)
		if y < prev-1e-12 || y < 0 || y > 1 {
			t.Fatalf("Yao not monotone at k=%d: %v < %v", k, y, prev)
		}
		prev = y
		sel := float64(k) / float64(n)
		approx := YaoApprox(n, m, sel)
		if math.Abs(approx-y) > 0.05 {
			t.Fatalf("approximation diverges at k=%d: exact %v approx %v", k, y, approx)
		}
	}
}

func TestYaoApproxEdges(t *testing.T) {
	if YaoApprox(0, 1000, 0.5) != 0 {
		t.Error("no objects -> 0")
	}
	if YaoApprox(1000, 0, 0.5) != 0 {
		t.Error("no pages -> 0")
	}
	if YaoApprox(1000, 10, -1) != 0 {
		t.Error("negative selectivity -> 0")
	}
	if got := YaoApprox(70000, 1000, 1); got < 0.99 {
		t.Errorf("full selectivity = %v, want ~1", got)
	}
}
