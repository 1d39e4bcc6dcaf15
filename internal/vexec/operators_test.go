package vexec_test

import (
	"testing"
	"testing/quick"

	"disco/internal/algebra"
	"disco/internal/refeval"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// Hand-checked operator semantics on tiny inputs. Every plan runs through
// the vectorized pipeline and the naive evaluator; the two must agree bit
// for bit before the expected values are checked, so each case pins both.

func tableAB() testCatalog {
	return testCatalog{"T": {
		schema: types.NewSchema(
			types.Field{Name: "a", Collection: "T", Type: types.KindInt},
			types.Field{Name: "b", Collection: "T", Type: types.KindString},
		),
		rows: []types.Row{
			{types.Int(3), types.Str("x")},
			{types.Int(1), types.Str("y")},
			{types.Int(2), types.Str("x")},
			{types.Int(1), types.Str("y")},
		},
	}}
}

func scanT() *algebra.Node { return algebra.Scan("src", "T") }

// evalBoth resolves and runs the plan on both evaluators, requires
// bit-identical answers, and returns the answer with vexec's stats.
func evalBoth(t *testing.T, cat testCatalog, plan *algebra.Node) ([]types.Row, vexec.Counts) {
	t.Helper()
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	want, err := refeval.Eval(plan, cat.scanLeaf, nil)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	counts := vexec.Counts{}
	got, err := vexec.Run(plan, &vexec.Env{Counts: counts, Leaf: cat.scanLeaf})
	if err != nil {
		t.Fatalf("vexec: %v", err)
	}
	requireBitIdentical(t, plan.Kind.String(), want, got)
	return got, counts
}

func TestFilter(t *testing.T) {
	cat := tableAB()
	got, _ := evalBoth(t, cat, algebra.Select(scanT(),
		algebra.NewSelPred(algebra.Ref{Attr: "a"}, stats.CmpGE, types.Int(2))))
	if len(got) != 2 {
		t.Errorf("filtered = %v", got)
	}
	if out, _ := evalBoth(t, cat, algebra.Select(scanT(), nil)); len(out) != 4 {
		t.Error("nil predicate keeps everything")
	}
}

func TestProject(t *testing.T) {
	got, _ := evalBoth(t, tableAB(), algebra.Project(scanT(), "b", "a"))
	if got[0][0].AsString() != "x" || got[0][1].AsInt() != 3 {
		t.Errorf("projected = %v", got[0])
	}
}

func TestSort(t *testing.T) {
	cat := tableAB()
	got, _ := evalBoth(t, cat, algebra.Sort(scanT(), algebra.SortKey{Attr: algebra.Ref{Attr: "a"}}))
	for i, w := range []int64{1, 1, 2, 3} {
		if got[i][0].AsInt() != w {
			t.Fatalf("sorted = %v", got)
		}
	}
	desc, _ := evalBoth(t, cat, algebra.Sort(scanT(), algebra.SortKey{Attr: algebra.Ref{Attr: "a"}, Desc: true}))
	if desc[0][0].AsInt() != 3 {
		t.Errorf("desc sorted = %v", desc)
	}
	// Multi-key: b asc then a desc.
	multi, _ := evalBoth(t, cat, algebra.Sort(scanT(),
		algebra.SortKey{Attr: algebra.Ref{Attr: "b"}},
		algebra.SortKey{Attr: algebra.Ref{Attr: "a"}, Desc: true}))
	if multi[0][1].AsString() != "x" || multi[0][0].AsInt() != 3 {
		t.Errorf("multi sorted = %v", multi)
	}
	if cat["T"].rows[0][0].AsInt() != 3 {
		t.Error("sort mutated its input")
	}
}

func TestUnionDupElim(t *testing.T) {
	cat := tableAB()
	if u, _ := evalBoth(t, cat, algebra.Union(scanT(), scanT())); len(u) != 8 {
		t.Errorf("union = %d", len(u))
	}
	d, _ := evalBoth(t, cat, algebra.DupElim(scanT()))
	if len(d) != 3 {
		t.Errorf("dupelim = %d, want 3", len(d))
	}
	// First occurrence is kept.
	if d[1][0].AsInt() != 1 {
		t.Errorf("order = %v", d)
	}
}

// Property: DupElim is idempotent and never grows the input.
func TestDupElimProperties(t *testing.T) {
	f := func(vals []int8) bool {
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = types.Row{types.Int(int64(v % 4))}
		}
		cat := testCatalog{"T": {schema: types.NewSchema(types.Field{Name: "a", Collection: "T", Type: types.KindInt}), rows: rows}}
		once, _ := evalBoth(t, cat, algebra.DupElim(scanT()))
		twice, _ := evalBoth(t, cat, algebra.DupElim(algebra.DupElim(scanT())))
		if len(once) > len(rows) || len(twice) != len(once) {
			return false
		}
		for i := range once {
			if !once[i].Equal(twice[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	a := algebra.Ref{Attr: "a"}
	got, _ := evalBoth(t, tableAB(), algebra.Aggregate(scanT(),
		[]algebra.Ref{{Attr: "b"}},
		[]algebra.AggSpec{
			{Func: algebra.AggCount, Star: true},
			{Func: algebra.AggSum, Attr: a},
			{Func: algebra.AggMin, Attr: a},
			{Func: algebra.AggMax, Attr: a},
			{Func: algebra.AggAvg, Attr: a},
		}))
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	// Group "x" comes first (first seen): rows a=3, a=2.
	x := got[0]
	if x[0].AsString() != "x" || x[1].AsInt() != 2 || x[2].AsFloat() != 5 || x[3].AsInt() != 2 || x[4].AsInt() != 3 || x[5].AsFloat() != 2.5 {
		t.Errorf("group x = %v", x)
	}
}

func TestAggregateNoGroupsEmptyInput(t *testing.T) {
	cat := tableAB()
	empty := algebra.Select(scanT(), algebra.NewSelPred(algebra.Ref{Attr: "a"}, stats.CmpGT, types.Int(99)))
	got, _ := evalBoth(t, cat, algebra.Aggregate(empty, nil, []algebra.AggSpec{
		{Func: algebra.AggCount, Star: true},
		{Func: algebra.AggAvg, Attr: algebra.Ref{Attr: "a"}},
	}))
	if len(got) != 1 || got[0][0].AsInt() != 0 || !got[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", got)
	}
	// With grouping, empty input yields no groups.
	got, _ = evalBoth(t, cat, algebra.Aggregate(empty.Clone(), []algebra.Ref{{Attr: "b"}},
		[]algebra.AggSpec{{Func: algebra.AggCount, Star: true}}))
	if len(got) != 0 {
		t.Errorf("grouped empty aggregate = %v", got)
	}
}

// joinTables is the hand-checked join fixture: E(id, name) and
// B(author, title); ids 1 and 3 have matching authors, three pairs in all.
func joinTables() testCatalog {
	return testCatalog{
		"E": {
			schema: types.NewSchema(
				types.Field{Name: "id", Collection: "E", Type: types.KindInt},
				types.Field{Name: "name", Collection: "E", Type: types.KindString}),
			rows: []types.Row{
				{types.Int(1), types.Str("ana")},
				{types.Int(2), types.Str("bob")},
				{types.Int(3), types.Str("cyd")},
			},
		},
		"B": {
			schema: types.NewSchema(
				types.Field{Name: "author", Collection: "B", Type: types.KindInt},
				types.Field{Name: "title", Collection: "B", Type: types.KindString}),
			rows: []types.Row{
				{types.Int(1), types.Str("t1")},
				{types.Int(1), types.Str("t2")},
				{types.Int(3), types.Str("t3")},
				{types.Int(9), types.Str("t9")},
			},
		},
	}
}

// joinBoth joins left ⋈ right under pred on both evaluators — a hash join
// in vexec whenever the predicate has an equi-conjunct, nested loops in
// the reference, always — and reports which strategy vexec chose.
func joinBoth(t *testing.T, cat testCatalog, left, right string, pred *algebra.Predicate) ([]types.Row, bool) {
	t.Helper()
	plan := algebra.Join(algebra.Scan("src", left), algebra.Scan("src", right), pred)
	rows, counts := evalBoth(t, cat, plan)
	return rows, counts.Stat(plan).HashJoin
}

func TestJoinsAgree(t *testing.T) {
	pred := algebra.NewJoinPred(algebra.Ref{Collection: "E", Attr: "id"}, algebra.Ref{Collection: "B", Attr: "author"})
	rows, hashed := joinBoth(t, joinTables(), "E", "B", pred)
	if !hashed {
		t.Fatal("hash join should apply to an equi-join")
	}
	if len(rows) != 3 {
		t.Fatalf("joined %d rows, want 3", len(rows))
	}
}

func TestHashJoinFlippedConjunct(t *testing.T) {
	// Predicate written right-to-left: B.author = E.id.
	pred := algebra.NewJoinPred(algebra.Ref{Collection: "B", Attr: "author"}, algebra.Ref{Collection: "E", Attr: "id"})
	rows, hashed := joinBoth(t, joinTables(), "E", "B", pred)
	if !hashed || len(rows) != 3 {
		t.Errorf("flipped hash join = %v rows, hashed %v", len(rows), hashed)
	}
}

func TestHashJoinNoEquiConjunct(t *testing.T) {
	pred := &algebra.Predicate{Conjuncts: []algebra.Comparison{{
		Left: algebra.Ref{Collection: "E", Attr: "id"}, Op: stats.CmpLT,
		RightAttr: &algebra.Ref{Collection: "B", Attr: "author"}}}}
	rows, hashed := joinBoth(t, joinTables(), "E", "B", pred)
	if hashed {
		t.Error("hash join should refuse a non-equi predicate")
	}
	// id < author: (1,3),(1,9),(2,3),(2,9),(3,9).
	if len(rows) != 5 {
		t.Errorf("theta join = %d rows, want 5", len(rows))
	}
}

// intTables builds single-column tables L(x) and R(y) of the given kinds.
func intTables(l, r []types.Row, rkind types.Kind) testCatalog {
	return testCatalog{
		"L": {schema: types.NewSchema(types.Field{Name: "x", Collection: "L", Type: types.KindInt}), rows: l},
		"R": {schema: types.NewSchema(types.Field{Name: "y", Collection: "R", Type: rkind}), rows: r},
	}
}

func TestNumericCrossKindHashJoin(t *testing.T) {
	// Int(3) on one side must join Float(3) on the other.
	cat := intTables([]types.Row{{types.Int(3)}}, []types.Row{{types.Float(3)}}, types.KindFloat)
	rows, hashed := joinBoth(t, cat, "L", "R", algebra.NewJoinPred(algebra.Ref{Attr: "x"}, algebra.Ref{Attr: "y"}))
	if !hashed || len(rows) != 1 {
		t.Errorf("cross-kind numeric join = %v, hashed %v", rows, hashed)
	}
}

// Property: the hash join agrees with the reference nested-loop join, row
// for row, on random equi-join inputs.
func TestJoinEquivalenceProperty(t *testing.T) {
	pred := algebra.NewJoinPred(algebra.Ref{Attr: "x"}, algebra.Ref{Attr: "y"})
	f := func(ls, rs []uint8) bool {
		lrows := make([]types.Row, len(ls))
		for i, v := range ls {
			lrows[i] = types.Row{types.Int(int64(v % 8))}
		}
		rrows := make([]types.Row, len(rs))
		for i, v := range rs {
			rrows[i] = types.Row{types.Int(int64(v % 8))}
		}
		_, hashed := joinBoth(t, intTables(lrows, rrows, types.KindInt), "L", "R", pred.Clone())
		return hashed && !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
