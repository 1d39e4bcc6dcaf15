package stats

import (
	"math"
	"math/rand"
	"testing"

	"disco/internal/types"
)

// referenceSummary is the loop the stores ran before Summarize: a set
// keyed by kind and rendering, and Min and Max by Less. Summarize must
// agree with it on every column.
func referenceSummary(rows []types.Row, pos int) AttributeStats {
	out := AttributeStats{}
	distinct := make(map[string]struct{})
	for i, row := range rows {
		v := row[pos]
		distinct[v.Kind().String()+":"+v.String()] = struct{}{}
		if i == 0 || v.Less(out.Min) {
			out.Min = v
		}
		if i == 0 || out.Max.Less(v) {
			out.Max = v
		}
	}
	out.CountDistinct = int64(len(distinct))
	return out
}

// column puts values in the second field of rows whose first field is
// their position.
func column(values []types.Constant) []types.Row {
	rows := make([]types.Row, len(values))
	for i, v := range values {
		rows[i] = types.Row{types.Int(int64(i)), v}
	}
	return rows
}

func TestSummarizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ints := func(n int, f func() int64) []types.Constant {
		out := make([]types.Constant, n)
		for i := range out {
			out[i] = types.Int(f())
		}
		return out
	}
	nanBits := []uint64{0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0x7fffffffffffffff}
	floats := make([]types.Constant, 0, 400)
	for i := 0; i < 400; i++ {
		switch rng.Intn(5) {
		case 0:
			floats = append(floats, types.Float(math.Float64frombits(nanBits[rng.Intn(len(nanBits))])))
		case 1:
			floats = append(floats, types.Float(math.Copysign(0, -1)))
		case 2:
			floats = append(floats, types.Float(0))
		default:
			floats = append(floats, types.Float(float64(rng.Intn(50))/4))
		}
	}
	strs := make([]types.Constant, 300)
	for i := range strs {
		strs[i] = types.Str([]string{`a"b`, `a\"b`, "", "\x00", "\xff", "�", `"`, "zz", "a", "A"}[rng.Intn(10)])
	}
	mixed := make([]types.Constant, 300)
	for i := range mixed {
		mixed[i] = []types.Constant{
			types.Int(3), types.Float(3), types.Float(2.5), types.Null, types.Bool(true), types.Bool(false),
			types.Str("3"), types.Int(-1), types.Float(math.NaN()), types.Float(math.Inf(1)),
		}[rng.Intn(10)]
	}
	cases := []struct {
		name   string
		values []types.Constant
	}{
		{"empty", nil},
		{"one int", []types.Constant{types.Int(-7)}},
		{"one float", []types.Constant{types.Float(math.NaN())}},
		{"one string", []types.Constant{types.Str(`"q"`)}},
		{"dense ints", ints(2000, func() int64 { return rng.Int63n(1500) })},
		{"sparse ints", ints(2000, func() int64 { return rng.Int63n(1 << 40) })},
		{"negative ints", ints(1000, func() int64 { return -rng.Int63n(3000) - 1 })},
		{"whole int64 span", append(ints(500, func() int64 { return rng.Int63() - rng.Int63() }),
			types.Int(math.MinInt64), types.Int(math.MaxInt64), types.Int(math.MinInt64))},
		{"edge-only span", []types.Constant{types.Int(math.MaxInt64), types.Int(math.MinInt64)}},
		{"dense at the top", ints(300, func() int64 { return math.MaxInt64 - rng.Int63n(100) })},
		{"dense at the bottom", ints(300, func() int64 { return math.MinInt64 + rng.Int63n(100) })},
		{"dense across zero", ints(300, func() int64 { return rng.Int63n(200) - 100 })},
		{"constant ints", ints(100, func() int64 { return 42 })},
		{"floats with signed zeros and NaNs", floats},
		{"strings", strs},
		{"bools", []types.Constant{types.Bool(true), types.Bool(false), types.Bool(true)}},
		{"nulls", []types.Constant{types.Null, types.Null}},
		{"ints with a null", []types.Constant{types.Int(5), types.Null, types.Int(2)}},
		{"mixed kinds", mixed},
		{"int then float three", []types.Constant{types.Float(3), types.Int(3), types.Int(1)}},
	}
	for _, c := range cases {
		rows := column(c.values)
		if got, want := Summarize(rows, 1), referenceSummary(rows, 1); !sameSummary(got, want) {
			t.Errorf("%s: Summarize = %+v, reference %+v", c.name, got, want)
		}
	}
}

// sameSummary compares two summaries field by field, bounds by kind and
// payload so -0 and +0 or two NaN payloads differ.
func sameSummary(a, b AttributeStats) bool {
	return a.CountDistinct == b.CountDistinct && a.Indexed == b.Indexed && a.Clustered == b.Clustered &&
		a.Min == b.Min && a.Max == b.Max
}

// An int column's summary allocates its distinct-value bitmap or sorted
// copy and nothing else, whatever its length.
func TestSummarizeIntAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{100, 10000} {
		dense := make([]types.Constant, n)
		sparse := make([]types.Constant, n)
		for i := range dense {
			dense[i] = types.Int(int64(i % 700))
			sparse[i] = types.Int(int64(i) * 1e9)
		}
		for name, rows := range map[string][]types.Row{"dense": column(dense), "sparse": column(sparse)} {
			if a := testing.AllocsPerRun(10, func() { Summarize(rows, 1) }); a > 1 {
				t.Errorf("%s int column of %d rows: %v allocations, want at most 1", name, n, a)
			}
		}
	}
}
