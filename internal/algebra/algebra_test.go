package algebra

import (
	"strings"
	"testing"
	"testing/quick"

	"disco/internal/stats"
	"disco/internal/types"
)

func employeeSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Employee", Type: types.KindString},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	)
}

func bookSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "Book", Type: types.KindInt},
		types.Field{Name: "title", Collection: "Book", Type: types.KindString},
		types.Field{Name: "author", Collection: "Book", Type: types.KindInt},
	)
}

func testSource() FixedSchemas {
	return FixedSchemas{
		"w1/Employee": employeeSchema(),
		"w2/Book":     bookSchema(),
	}
}

func TestPredicateString(t *testing.T) {
	p := NewSelPred(Ref{Collection: "Employee", Attr: "salary"}, stats.CmpEQ, types.Int(10))
	if p.String() != "Employee.salary = 10" {
		t.Errorf("String = %q", p.String())
	}
	j := NewJoinPred(Ref{Attr: "a"}, Ref{Attr: "b"})
	if j.String() != "a = b" {
		t.Errorf("String = %q", j.String())
	}
	var nilPred *Predicate
	if nilPred.String() != "true" {
		t.Errorf("nil predicate = %q", nilPred.String())
	}
	both := p.And(j)
	if both.String() != "Employee.salary = 10 AND a = b" {
		t.Errorf("And = %q", both.String())
	}
}

func TestPredicateAndNil(t *testing.T) {
	p := NewSelPred(Ref{Attr: "x"}, stats.CmpGT, types.Int(1))
	if got := (*Predicate)(nil).And(p); !got.Equal(p) {
		t.Error("nil.And(p) should equal p")
	}
	if got := p.And(nil); !got.Equal(p) {
		t.Error("p.And(nil) should equal p")
	}
	// And must deep-copy: mutating result must not affect p.
	q := p.And(nil)
	q.Conjuncts[0].RightConst = types.Int(99)
	if p.Conjuncts[0].RightConst.AsInt() != 1 {
		t.Error("And should deep-copy conjuncts")
	}
}

func TestPredicateEval(t *testing.T) {
	s := employeeSchema()
	row := types.Row{types.Int(1), types.Str("ana"), types.Int(1500)}
	cases := []struct {
		pred *Predicate
		want bool
	}{
		{NewSelPred(Ref{Attr: "salary"}, stats.CmpGT, types.Int(1000)), true},
		{NewSelPred(Ref{Attr: "salary"}, stats.CmpLT, types.Int(1000)), false},
		{NewSelPred(Ref{Collection: "Employee", Attr: "name"}, stats.CmpEQ, types.Str("ana")), true},
		{NewSelPred(Ref{Attr: "salary"}, stats.CmpGT, types.Int(1000)).
			And(NewSelPred(Ref{Attr: "id"}, stats.CmpEQ, types.Int(1))), true},
		{NewSelPred(Ref{Attr: "salary"}, stats.CmpGT, types.Int(1000)).
			And(NewSelPred(Ref{Attr: "id"}, stats.CmpEQ, types.Int(2))), false},
		{nil, true},
		{NewSelPred(Ref{Attr: "missing"}, stats.CmpEQ, types.Int(1)), false},
	}
	for i, c := range cases {
		if got := c.pred.Eval(s, row); got != c.want {
			t.Errorf("case %d (%s): Eval = %v, want %v", i, c.pred, got, c.want)
		}
	}
}

func TestPredicateEvalJoinComparison(t *testing.T) {
	s := employeeSchema().Concat(bookSchema())
	row := types.Row{types.Int(7), types.Str("ana"), types.Int(1500),
		types.Int(3), types.Str("Go"), types.Int(7)}
	p := NewJoinPred(Ref{Collection: "Employee", Attr: "id"}, Ref{Collection: "Book", Attr: "author"})
	if !p.Eval(s, row) {
		t.Error("join predicate should hold: Employee.id = Book.author = 7")
	}
	p2 := NewJoinPred(Ref{Collection: "Employee", Attr: "id"}, Ref{Collection: "Book", Attr: "id"})
	if p2.Eval(s, row) {
		t.Error("join predicate should fail: 7 != 3")
	}
}

func TestPredicateSplit(t *testing.T) {
	p := NewSelPred(Ref{Attr: "x"}, stats.CmpEQ, types.Int(1)).
		And(NewJoinPred(Ref{Attr: "a"}, Ref{Attr: "b"}))
	if len(p.SelectionComparisons()) != 1 || len(p.JoinComparisons()) != 1 {
		t.Errorf("split = %d sel, %d join", len(p.SelectionComparisons()), len(p.JoinComparisons()))
	}
}

func TestNodeConstructorsAndString(t *testing.T) {
	plan := Project(
		Select(
			Join(
				Submit(Scan("w1", "Employee"), "w1"),
				Submit(Scan("w2", "Book"), "w2"),
				NewJoinPred(Ref{Collection: "Employee", Attr: "id"}, Ref{Collection: "Book", Attr: "author"}),
			),
			NewSelPred(Ref{Collection: "Employee", Attr: "salary"}, stats.CmpGT, types.Int(1000)),
		),
		"Employee.name", "Book.title",
	)
	s := plan.String()
	for _, want := range []string{"project(Employee.name, Book.title)", "select(", "join(", "submit(@w1)", "scan(Employee@w1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	if len(plan.Scans()) != 2 {
		t.Errorf("Scans = %d, want 2", len(plan.Scans()))
	}
}

func TestNodeCloneIndependence(t *testing.T) {
	orig := Select(Scan("w1", "Employee"),
		NewSelPred(Ref{Attr: "salary"}, stats.CmpEQ, types.Int(10)))
	cl := orig.Clone()
	if !orig.Equal(cl) {
		t.Fatal("clone should be structurally equal")
	}
	cl.Pred.Conjuncts[0].RightConst = types.Int(99)
	cl.Children[0].Collection = "Other"
	if orig.Pred.Conjuncts[0].RightConst.AsInt() != 10 {
		t.Error("clone shares predicate")
	}
	if orig.Children[0].Collection != "Employee" {
		t.Error("clone shares children")
	}
	if orig.Equal(cl) {
		t.Error("mutated clone should differ")
	}
}

func TestResolveJoinPlan(t *testing.T) {
	plan := Project(
		Join(
			Scan("w1", "Employee"),
			Scan("w2", "Book"),
			NewJoinPred(Ref{Collection: "Employee", Attr: "id"}, Ref{Collection: "Book", Attr: "author"}),
		),
		"Employee.name", "Book.title",
	)
	if err := Resolve(plan, testSource()); err != nil {
		t.Fatal(err)
	}
	if plan.OutSchema.Len() != 2 {
		t.Errorf("projected schema = %s", plan.OutSchema)
	}
	join := plan.Children[0]
	if join.OutSchema.Len() != 6 {
		t.Errorf("join schema = %s", join.OutSchema)
	}
}

func TestResolveErrors(t *testing.T) {
	src := testSource()
	cases := []*Node{
		Scan("w1", "Nope"),
		Select(Scan("w1", "Employee"), NewSelPred(Ref{Attr: "bogus"}, stats.CmpEQ, types.Int(1))),
		Project(Scan("w1", "Employee"), "bogus"),
		Sort(Scan("w1", "Employee"), SortKey{Attr: Ref{Attr: "bogus"}}),
		Join(Scan("w1", "Employee"), Scan("w2", "Book"),
			NewJoinPred(Ref{Attr: "bogus"}, Ref{Attr: "author"})),
		Union(Scan("w1", "Employee"), Project(Scan("w2", "Book"), "title")),
		Aggregate(Scan("w1", "Employee"), []Ref{{Attr: "bogus"}}, nil),
		Aggregate(Scan("w1", "Employee"), nil, []AggSpec{{Func: AggSum, Attr: Ref{Attr: "bogus"}}}),
	}
	for i, plan := range cases {
		if err := Resolve(plan, src); err == nil {
			t.Errorf("case %d: Resolve should fail\n%s", i, plan)
		}
	}
}

func TestResolveAggregateSchema(t *testing.T) {
	plan := Aggregate(Scan("w1", "Employee"),
		[]Ref{{Collection: "Employee", Attr: "name"}},
		[]AggSpec{
			{Func: AggCount, Star: true, As: "n"},
			{Func: AggSum, Attr: Ref{Attr: "salary"}, As: "total"},
			{Func: AggMax, Attr: Ref{Attr: "name"}, As: "maxname"},
		})
	if err := Resolve(plan, testSource()); err != nil {
		t.Fatal(err)
	}
	s := plan.OutSchema
	if s.Len() != 4 {
		t.Fatalf("schema = %s", s)
	}
	if s.Field(1).Type != types.KindInt {
		t.Errorf("count type = %v, want int", s.Field(1).Type)
	}
	if s.Field(2).Type != types.KindFloat {
		t.Errorf("sum type = %v, want float", s.Field(2).Type)
	}
	if s.Field(3).Type != types.KindString {
		t.Errorf("max(name) type = %v, want string (propagated)", s.Field(3).Type)
	}
}

func TestOpKindByName(t *testing.T) {
	for _, k := range []OpKind{OpScan, OpSelect, OpProject, OpSort, OpJoin, OpUnion, OpDupElim, OpAggregate, OpSubmit} {
		got, ok := OpKindByName(k.String())
		if !ok || got != k {
			t.Errorf("round-trip %s failed: %v %v", k, got, ok)
		}
	}
	if _, ok := OpKindByName("frobnicate"); ok {
		t.Error("unknown name should not resolve")
	}
}

// Property: Clone is always Equal to the original, for a family of
// generated select-over-scan plans.
func TestCloneEqualProperty(t *testing.T) {
	f := func(val int32, attr uint8, opRaw uint8) bool {
		names := []string{"id", "salary", "name"}
		ops := []stats.CmpOp{stats.CmpEQ, stats.CmpLT, stats.CmpGT, stats.CmpNE}
		p := Select(Scan("w1", "Employee"),
			NewSelPred(Ref{Attr: names[int(attr)%len(names)]},
				ops[int(opRaw)%len(ops)], types.Int(int64(val))))
		return p.Equal(p.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeadRenderingAllOperators(t *testing.T) {
	scan := Scan("w", "T")
	cases := []struct {
		node *Node
		want string
	}{
		{Sort(scan, SortKey{Attr: Ref{Attr: "a"}, Desc: true}), "sort(a DESC)"},
		{Union(scan, scan), "union"},
		{DupElim(scan), "dupelim"},
		{Aggregate(scan, []Ref{{Attr: "g"}}, []AggSpec{
			{Func: AggSum, Attr: Ref{Attr: "x"}, As: "s"},
			{Func: AggCount, Star: true},
		}), "aggregate(g, sum(x) AS s, count(*))"},
	}
	for _, c := range cases {
		got := strings.SplitN(c.node.String(), "\n", 2)[0]
		if got != c.want {
			t.Errorf("head = %q, want %q", got, c.want)
		}
	}
}

func TestWalkPrunesSubtrees(t *testing.T) {
	plan := Select(DupElim(Scan("w", "T")), nil)
	visited := 0
	plan.Walk(func(n *Node) bool {
		visited++
		return n.Kind != OpDupElim // prune below dupelim
	})
	if visited != 2 {
		t.Errorf("visited = %d, want 2 (scan pruned)", visited)
	}
}

func TestAggFuncStrings(t *testing.T) {
	want := map[AggFunc]string{
		AggCount: "count", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max",
	}
	for fn, s := range want {
		if fn.String() != s {
			t.Errorf("%v.String() = %q", fn, fn.String())
		}
	}
}
