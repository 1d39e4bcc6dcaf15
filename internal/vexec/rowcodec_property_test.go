package vexec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"disco/internal/proto"
	"disco/internal/types"
)

// sameConstant is kind-exact, bit-exact equality: Int(2) is not Float(2),
// 0.0 is not -0.0, and a NaN equals itself.
func sameConstant(a, b types.Constant) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindInt:
		return a.AsInt() == b.AsInt()
	case types.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case types.KindString:
		return a.AsString() == b.AsString()
	case types.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return true
}

func requireSameRows(t *testing.T, carrier string, want, got []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows back, sent %d", carrier, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d values, sent %d", carrier, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameConstant(want[i][j], got[i][j]) {
				t.Fatalf("%s: row %d column %d: sent %v %v, got %v %v", carrier, i, j,
					want[i][j].Kind(), want[i][j], got[i][j].Kind(), got[i][j])
			}
		}
	}
}

// requireRoundTrip sends rows (all of one width) through every carrier of
// the value codec: a Response frame, a WrapperResponse frame and a spill
// file. Rows of no columns exist in a spill file only: a frame refuses
// them, since its reader bounds a row count by a byte per value.
func requireRoundTrip(t *testing.T, rows []types.Row) {
	t.Helper()
	requireSpillRoundTrip(t, rows)
	frame, err := proto.EncodeFrame(&proto.Response{OK: true, Rows: rows})
	if len(rows) > 0 && len(rows[0]) == 0 {
		if err == nil {
			t.Fatalf("%d rows of no columns were framed", len(rows))
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := proto.NewReader(bytes.NewReader(frame)).ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "Response frame", rows, resp.Rows)

	frame, err = proto.EncodeFrame(&proto.WrapperResponse{OK: true, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := proto.NewReader(bytes.NewReader(frame)).ReadWrapperResponse()
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "WrapperResponse frame", rows, wresp.Rows)
}

func requireSpillRoundTrip(t *testing.T, rows []types.Row) {
	t.Helper()
	sf, err := createSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.cleanup()
	for _, r := range rows {
		if err := sf.write(r); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := sf.startRead()
	if err != nil {
		t.Fatal(err)
	}
	var spilled []types.Row
	for {
		row, ok, err := sr.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		spilled = append(spilled, row)
	}
	requireSameRows(t, "spill file", rows, spilled)
}

// randomConstant draws a value of the given kind, or of any kind for
// kind < 0, null one time in eight.
func randomConstant(rng *rand.Rand, kind int) types.Constant {
	if rng.Intn(8) == 0 {
		return types.Null
	}
	if kind < 0 {
		kind = rng.Intn(4)
	}
	switch kind {
	case 0:
		edge := []int64{0, -1, 1, 255, 256, 1<<53 + 1, math.MaxInt64, math.MinInt64}
		if rng.Intn(3) == 0 {
			return types.Int(edge[rng.Intn(len(edge))])
		}
		return types.Int(int64(rng.Uint64()) >> uint(rng.Intn(64)))
	case 1:
		edge := []float64{0, math.Copysign(0, -1), 2, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
		if rng.Intn(3) == 0 {
			return types.Float(edge[rng.Intn(len(edge))])
		}
		return types.Float(math.Float64frombits(rng.Uint64()))
	case 2:
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = "\n\x00a\xffz\"{"[rng.Intn(7)]
		}
		return types.Str(string(b))
	default:
		return types.Bool(rng.Intn(2) == 0)
	}
}

// TestRowCodecRoundTripProperty: over random schemas (0-8 columns, typed
// and mixed, nulls) and row counts from 0 to a few thousand, what goes
// into a wire frame or a spill file comes out kind-exact and bit-exact.
func TestRowCodecRoundTripProperty(t *testing.T) {
	// The fixed cases the spill codec was first pinned with.
	for _, row := range []types.Row{
		{types.Int(0), types.Int(-1), types.Int(1 << 62)},
		{types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(3.141592653589793)},
		{types.Str(""), types.Str("héllo\x00world")},
		{types.Bool(true), types.Bool(false), types.Null},
		{},
	} {
		requireRoundTrip(t, []types.Row{row})
	}
	requireRoundTrip(t, nil)
	requireRoundTrip(t, []types.Row{{}, {}, {}})

	rng := rand.New(rand.NewSource(24))
	counts := []int{0, 1, 2, 17, 300, 3000}
	for iter := 0; iter < 60; iter++ {
		cols := rng.Intn(9)
		kinds := make([]int, cols)
		for j := range kinds {
			kinds[j] = rng.Intn(5) - 1 // -1: any kind per value
		}
		rows := make([]types.Row, counts[iter%len(counts)])
		for i := range rows {
			rows[i] = make(types.Row, cols)
			for j := range rows[i] {
				rows[i][j] = randomConstant(rng, kinds[j])
			}
		}
		requireRoundTrip(t, rows)
	}
}
