package stats

import (
	"math"
	"math/bits"
	"slices"

	"disco/internal/types"
)

// Summarize computes the statistics a store exports for the column at
// pos of rows (registration-time work): the distinct count, Min and Max
// under types.Constant ordering. Indexed and Clustered are left to the
// caller.
//
// Two values are distinct when their kinds or renderings differ: Int(3)
// and Float(3) count twice, -0 and +0 twice, and every NaN once. The
// pass is typed by column: an all-int column keeps its bounds as int64
// and counts distinct values with a bitmap over [Min, Max] when that
// span is dense, else by sorting a copy; an all-string column keys a set
// by the string; any other column keys a set by the constant itself.
func Summarize(rows []types.Row, pos int) AttributeStats {
	var out AttributeStats
	if len(rows) == 0 {
		return out
	}
	if lo, hi, ok := intBounds(rows, pos); ok {
		out.Min, out.Max = types.Int(lo), types.Int(hi)
		out.CountDistinct = distinctInts(rows, pos, lo, hi)
	} else if allKind(rows, pos, types.KindString) {
		out.Min, out.Max, out.CountDistinct = summarizeStrings(rows, pos)
	} else {
		out.Min, out.Max, out.CountDistinct = summarizeConstants(rows, pos)
	}
	return out
}

// intBounds returns the column's bounds when every value is an int.
func intBounds(rows []types.Row, pos int) (lo, hi int64, ok bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, row := range rows {
		v := row[pos]
		if v.Kind() != types.KindInt {
			return 0, 0, false
		}
		n := v.AsInt()
		lo, hi = min(lo, n), max(hi, n)
	}
	return lo, hi, true
}

// distinctInts counts the distinct values of an int column whose bounds
// are lo and hi: one bit per value of the span when the bitmap is no
// larger than the column, else a sorted copy's runs. Either way it is
// one allocation.
func distinctInts(rows []types.Row, pos int, lo, hi int64) int64 {
	// span is hi-lo, exact in two's complement even across the whole
	// int64 range.
	span := uint64(hi) - uint64(lo)
	if span < 8*uint64(len(rows)) {
		set := make([]uint64, span/64+1)
		for _, row := range rows {
			off := uint64(row[pos].AsInt()) - uint64(lo)
			set[off/64] |= 1 << (off % 64)
		}
		n := 0
		for _, w := range set {
			n += bits.OnesCount64(w)
		}
		return int64(n)
	}
	vals := make([]int64, len(rows))
	for i, row := range rows {
		vals[i] = row[pos].AsInt()
	}
	slices.Sort(vals)
	n := int64(1)
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			n++
		}
	}
	return n
}

// allKind reports whether every value of the column is of kind k.
func allKind(rows []types.Row, pos int, k types.Kind) bool {
	for _, row := range rows {
		if row[pos].Kind() != k {
			return false
		}
	}
	return true
}

// summarizeStrings is Summarize's pass over an all-string column.
func summarizeStrings(rows []types.Row, pos int) (lo, hi types.Constant, distinct int64) {
	seen := make(map[string]struct{})
	first := rows[0][pos].AsString()
	loS, hiS := first, first
	for _, row := range rows {
		s := row[pos].AsString()
		seen[s] = struct{}{}
		loS, hiS = min(loS, s), max(hiS, s)
	}
	return types.Str(loS), types.Str(hiS), int64(len(seen))
}

// nan is the one key every NaN counts as.
var nan = types.Float(math.NaN())

// summarizeConstants is Summarize's pass over any other column. Min and
// Max are the first value no later value orders strictly below (above),
// as Compare orders mixed kinds and NaNs.
func summarizeConstants(rows []types.Row, pos int) (lo, hi types.Constant, distinct int64) {
	seen := make(map[types.Constant]struct{})
	lo, hi = rows[0][pos], rows[0][pos]
	for _, row := range rows {
		v := row[pos]
		if v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat()) {
			seen[nan] = struct{}{}
		} else {
			seen[v] = struct{}{}
		}
		if v.Less(lo) {
			lo = v
		}
		if hi.Less(v) {
			hi = v
		}
	}
	return lo, hi, int64(len(seen))
}
