package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"disco/internal/types"
)

func intVals(vs ...int64) []types.Constant {
	out := make([]types.Constant, len(vs))
	for i, v := range vs {
		out[i] = types.Int(v)
	}
	return out
}

func TestEquiWidthDegenerate(t *testing.T) {
	// All-equal values: a single point distribution in four equal-width
	// buckets over [5, 6].
	h := &Histogram{Total: 4, Buckets: []Bucket{
		{Lo: types.Float(5), Hi: types.Float(5.25), Count: 4, Distinct: 1},
		{Lo: types.Float(5.25), Hi: types.Float(5.5)},
		{Lo: types.Float(5.5), Hi: types.Float(5.75)},
		{Lo: types.Float(5.75), Hi: types.Float(6)},
	}}
	if got := h.Selectivity(CmpEQ, types.Int(5)); got < 0.2 {
		t.Errorf("eq selectivity on point distribution = %v, want high", got)
	}
	// Off-distribution probes floor at one object's worth of selectivity
	// instead of a hard 0 (a zero here would zero out every join above).
	if got := h.Selectivity(CmpEQ, types.Int(99)); got != 0.25 {
		t.Errorf("eq selectivity off-distribution = %v, want the 1/Total floor 0.25", got)
	}
}

func TestEqualityFloor(t *testing.T) {
	// A hand-built histogram with a zero-distinct bucket (as a stale or
	// corrupted catalog entry could carry): an equality probe landing in
	// it must not report an impossible hard 0.
	h := &Histogram{
		Total: 100,
		Buckets: []Bucket{
			{Lo: types.Float(0), Hi: types.Float(10), Count: 50, Distinct: 0},
			{Lo: types.Float(10), Hi: types.Float(20), Count: 50, Distinct: 5},
		},
	}
	if got := h.Selectivity(CmpEQ, types.Int(3)); got != 0.01 {
		t.Errorf("zero-distinct bucket eq = %v, want 1/Total floor 0.01", got)
	}
	// Probe past every bucket: same floor.
	if got := h.Selectivity(CmpEQ, types.Int(40)); got != 0.01 {
		t.Errorf("all-bucket miss eq = %v, want 1/Total floor 0.01", got)
	}
	// When every value is distinct the floor coincides with the
	// 1/CountDistinct uniform path used when no histogram exists.
	vals := make([]types.Constant, 0, 50)
	for i := int64(0); i < 50; i++ {
		vals = append(vals, types.Int(i))
	}
	hd := NewEquiDepth(vals, 5)
	uniform := AttributeStats{CountDistinct: 50, Min: types.Int(0), Max: types.Int(49)}.
		Selectivity(CmpEQ, types.Int(-7))
	if got := hd.Selectivity(CmpEQ, types.Int(-7)); math.Abs(got-uniform) > 1e-12 {
		t.Errorf("miss floor = %v, want the no-histogram estimate %v", got, uniform)
	}
}

func TestEquiDepthBasics(t *testing.T) {
	vals := make([]types.Constant, 0, 100)
	for i := int64(0); i < 100; i++ {
		vals = append(vals, types.Int(i))
	}
	h := NewEquiDepth(vals, 4)
	if h == nil || len(h.Buckets) != 4 {
		t.Fatalf("histogram = %+v", h)
	}
	for _, b := range h.Buckets {
		if b.Count != 25 {
			t.Errorf("equi-depth bucket count = %d, want 25", b.Count)
		}
	}
	if got := h.Selectivity(CmpLT, types.Int(50)); math.Abs(got-0.5) > 0.05 {
		t.Errorf("lt 50 = %v, want ~0.5", got)
	}
	if NewEquiDepth(nil, 4) != nil {
		t.Error("empty input should give nil")
	}
}

func TestEquiDepthSkewBeatsUniform(t *testing.T) {
	// Heavy skew: 90% of mass at value 0, tail uniform in [1,1000].
	rng := rand.New(rand.NewSource(7))
	var vals []types.Constant
	for i := 0; i < 900; i++ {
		vals = append(vals, types.Int(0))
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, types.Int(1+rng.Int63n(1000)))
	}
	h := NewEquiDepth(vals, 10)
	truth := 0.9 // fraction with value < 1
	est := h.Selectivity(CmpLT, types.Int(1))
	uniform := AttributeStats{CountDistinct: 100, Min: types.Int(0), Max: types.Int(1000)}.
		Selectivity(CmpLT, types.Int(1))
	if math.Abs(est-truth) >= math.Abs(uniform-truth) {
		t.Errorf("equi-depth est %v should beat uniform %v against truth %v", est, uniform, truth)
	}
}

// Property: histogram selectivities are valid probabilities and
// cumulativeBelow is monotone in the probe value.
func TestHistogramSelectivityProperties(t *testing.T) {
	vals := make([]types.Constant, 500)
	rng := rand.New(rand.NewSource(42))
	for i := range vals {
		vals[i] = types.Int(rng.Int63n(1000))
	}
	for name, h := range map[string]*Histogram{
		"depth": NewEquiDepth(vals, 20),
	} {
		f := func(v1, v2 uint16) bool {
			a := types.Int(int64(v1) % 1200)
			b := types.Int(int64(v2) % 1200)
			sa := h.Selectivity(CmpLT, a)
			sb := h.Selectivity(CmpLT, b)
			if sa < 0 || sa > 1 || sb < 0 || sb > 1 {
				return false
			}
			if a.Less(b) && sa > sb+1e-9 {
				return false
			}
			eq := h.Selectivity(CmpEQ, a)
			ne := h.Selectivity(CmpNE, a)
			return eq >= 0 && eq <= 1 && math.Abs(eq+ne-1) < 1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: histogram range estimate approximates the true fraction on
// uniform data within a bucket width.
func TestHistogramAccuracyUniform(t *testing.T) {
	vals := make([]types.Constant, 0, 10000)
	for i := int64(0); i < 10000; i++ {
		vals = append(vals, types.Int(i))
	}
	h := NewEquiDepth(vals, 50)
	for _, probe := range []int64{100, 2500, 5000, 9000} {
		truth := float64(probe) / 10000
		est := h.Selectivity(CmpLT, types.Int(probe))
		if math.Abs(est-truth) > 0.03 {
			t.Errorf("probe %d: est %v truth %v", probe, est, truth)
		}
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	if got := h.Selectivity(CmpEQ, types.Int(1)); got != 0.1 {
		t.Errorf("nil histogram selectivity = %v", got)
	}
	if h.String() != "hist(nil)" {
		t.Errorf("nil String = %q", h.String())
	}
}
