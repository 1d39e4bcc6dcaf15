package engine

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

type deployment struct {
	net    *netsim.Network
	cat    *catalog.Catalog
	engine *Engine
}

func buildDeployment(t *testing.T) *deployment {
	t.Helper()
	net := netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005})

	ostore := objstore.Open(objstore.DefaultConfig())
	emp, err := ostore.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Employee", Type: types.KindString},
		types.Field{Name: "dept", Collection: "Employee", Type: types.KindInt},
	), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		emp.Insert(types.Row{types.Int(int64(i)), types.Str("emp"), types.Int(int64(i % 10))})
	}
	if err := emp.CreateIndex("id", true); err != nil {
		t.Fatal(err)
	}

	rstore := relstore.Open(relstore.DefaultConfig())
	dept, err := rstore.CreateTable("Dept", types.NewSchema(
		types.Field{Name: "dno", Collection: "Dept", Type: types.KindInt},
		types.Field{Name: "dname", Collection: "Dept", Type: types.KindString},
	), 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dept.Insert(types.Row{types.Int(int64(i)), types.Str("dept")})
	}

	wrappers := map[string]wrapper.Wrapper{
		"obj1": wrapper.NewObjWrapper("obj1", ostore),
		"rel1": wrapper.NewRelWrapper("rel1", rstore),
	}
	cat := catalog.New()
	for _, w := range wrappers {
		if err := cat.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	return &deployment{net: net, cat: cat, engine: New(net, wrappers)}
}

func (d *deployment) resolve(t *testing.T, plan *algebra.Node) *algebra.Node {
	t.Helper()
	if err := algebra.Resolve(plan, d.cat); err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExecuteSubmit(t *testing.T) {
	d := buildDeployment(t)
	plan := d.resolve(t, algebra.Submit(
		algebra.Select(algebra.Scan("obj1", "Employee"),
			algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(20))),
		"obj1"))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.ElapsedMS <= 10 {
		t.Errorf("elapsed = %v, should include work and latency", res.ElapsedMS)
	}
}

func TestExecuteCrossSourceJoin(t *testing.T) {
	d := buildDeployment(t)
	plan := d.resolve(t, algebra.Project(
		algebra.Join(
			algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1"),
			algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1"),
			algebra.NewJoinPred(
				algebra.Ref{Collection: "Employee", Attr: "dept"},
				algebra.Ref{Collection: "Dept", Attr: "dno"})),
		"Employee.name", "Dept.dname"))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Errorf("join rows = %d, want 200", len(res.Rows))
	}
	if res.Schema.Len() != 2 {
		t.Errorf("projected schema = %v", res.Schema)
	}
}

func TestExecuteMediatorOps(t *testing.T) {
	d := buildDeployment(t)
	sub := algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1")
	plan := d.resolve(t, algebra.Sort(
		algebra.Aggregate(
			algebra.Select(sub, algebra.NewSelPred(algebra.Ref{Attr: "dept"}, stats.CmpLT, types.Int(5))),
			[]algebra.Ref{{Collection: "Employee", Attr: "dept"}},
			[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}),
		algebra.SortKey{Attr: algebra.Ref{Attr: "dept"}, Desc: true}))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 4 || res.Rows[0][1].AsInt() != 20 {
		t.Errorf("first group = %v", res.Rows[0])
	}
}

func TestExecuteUnionDupElim(t *testing.T) {
	d := buildDeployment(t)
	mk := func(limit int64) *algebra.Node {
		return algebra.Submit(
			algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(limit))), "obj1")
	}
	plan := d.resolve(t, algebra.DupElim(algebra.Union(mk(10), mk(5))))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("distinct rows = %d, want 10", len(res.Rows))
	}
}

func TestExecuteErrors(t *testing.T) {
	d := buildDeployment(t)
	// Unknown wrapper.
	bad := algebra.Submit(algebra.Scan("zzz", "Employee"), "zzz")
	bad.OutSchema = types.NewSchema(types.Field{Name: "x", Type: types.KindInt})
	bad.Children[0].OutSchema = bad.OutSchema
	if _, err := d.engine.Execute(bad); err == nil {
		t.Error("unknown wrapper should fail")
	}
	// Unplaced scan.
	scan := d.resolve(t, algebra.Scan("obj1", "Employee"))
	if _, err := d.engine.Execute(scan); err == nil {
		t.Error("unplaced scan should fail")
	}
	// Unresolved plan.
	if _, err := d.engine.Execute(algebra.Scan("obj1", "Employee")); err == nil {
		t.Error("unresolved plan should fail")
	}
}

func TestNetworkChargedOnShip(t *testing.T) {
	d := buildDeployment(t)
	plan := d.resolve(t, algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1"))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// At minimum: 200 deliveries * 9 + the link's latency, on top of the
	// store's page I/O.
	if res.ElapsedMS < 200*9+10 {
		t.Errorf("elapsed %v should include delivery and shipping cost", res.ElapsedMS)
	}
}

func TestExecuteThetaJoinFallsToNestedLoop(t *testing.T) {
	d := buildDeployment(t)
	// Non-equi join predicate: hash join refuses, nested loops apply.
	pred := &algebra.Predicate{Conjuncts: []algebra.Comparison{{
		Left: algebra.Ref{Collection: "Employee", Attr: "dept"}, Op: stats.CmpLT,
		RightAttr: &algebra.Ref{Collection: "Dept", Attr: "dno"}}}}
	plan := d.resolve(t, algebra.Join(
		algebra.Submit(algebra.Select(algebra.Scan("obj1", "Employee"),
			algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(10))), "obj1"),
		algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1"),
		pred))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// ids 0..9 have dept 0..9; dept < dno over dno 0..9:
	// for dept d there are 9-d matches -> sum = 45.
	if len(res.Rows) != 45 {
		t.Errorf("theta join rows = %d, want 45", len(res.Rows))
	}
}

func TestSubmitHookObservesExecutions(t *testing.T) {
	d := buildDeployment(t)
	var seen []string
	var rows int
	d.engine.SubmitHook = func(submit *algebra.Node, elapsed float64, n int, bytes int64) {
		seen = append(seen, submit.Wrapper)
		rows += n
		if elapsed <= 0 || bytes <= 0 {
			t.Errorf("hook got elapsed=%v bytes=%v", elapsed, bytes)
		}
	}
	plan := d.resolve(t, algebra.Join(
		algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1"),
		algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1"),
		algebra.NewJoinPred(algebra.Ref{Collection: "Employee", Attr: "dept"},
			algebra.Ref{Collection: "Dept", Attr: "dno"})))
	if _, err := d.engine.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || rows != 210 {
		t.Errorf("hook saw %v wrappers, %d rows", seen, rows)
	}
}

func TestProfileRecordsOperators(t *testing.T) {
	d := buildDeployment(t)
	subEmp := algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1")
	subDept := algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1")
	join := algebra.Join(subEmp, subDept,
		algebra.NewJoinPred(algebra.Ref{Collection: "Employee", Attr: "dept"},
			algebra.Ref{Collection: "Dept", Attr: "dno"}))
	plan := d.resolve(t, algebra.Project(join, "Employee.name", "Dept.dname"))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("Execute should attach a profile")
	}
	// exec visits the mediator-side nodes plus the submit boundaries;
	// the scans run opaquely inside the wrappers.
	if got := res.Profile.Len(); got != 4 {
		t.Errorf("profile entries = %d, want 4", got)
	}
	checks := []struct {
		node            *algebra.Node
		rowsOut, rowsIn int64
	}{
		{plan, 200, 200},
		{join, 200, 210},
		{subEmp, 200, 200},
		{subDept, 10, 10},
	}
	for _, c := range checks {
		a, ok := res.Profile.Actual(c.node)
		if !ok {
			t.Fatalf("no actual for %s", c.node.Kind)
		}
		if a.RowsOut != c.rowsOut || a.RowsIn != c.rowsIn {
			t.Errorf("%s rows out/in = %d/%d, want %d/%d",
				c.node.Kind, a.RowsOut, a.RowsIn, c.rowsOut, c.rowsIn)
		}
		if a.OwnMS < 0 || a.SubtreeMS < a.OwnMS {
			t.Errorf("%s own=%v subtree=%v", c.node.Kind, a.OwnMS, a.SubtreeMS)
		}
	}
	for _, sub := range []*algebra.Node{subEmp, subDept} {
		a, _ := res.Profile.Actual(sub)
		if a.Wrapper == "" || a.RoundTrips != 1 || a.Bytes <= 0 || a.Excluded {
			t.Errorf("submit %s actual = %+v", sub.Wrapper, a)
		}
	}
	// The root's subtree time is the whole query's elapsed time.
	root, _ := res.Profile.Actual(plan)
	if root.SubtreeMS <= 0 || root.SubtreeMS > res.ElapsedMS+1e-9 {
		t.Errorf("root subtree = %v, elapsed = %v", root.SubtreeMS, res.ElapsedMS)
	}
	if res.Profile.Partial {
		t.Error("profile should not be partial")
	}
}

func TestProfileRecordsExcludedSubmit(t *testing.T) {
	d := buildDeployment(t)
	d.engine.MarkUnavailable("rel1")
	subEmp := algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1")
	subDept := algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1")
	plan := d.resolve(t, algebra.Join(subEmp, subDept,
		algebra.NewJoinPred(algebra.Ref{Collection: "Employee", Attr: "dept"},
			algebra.Ref{Collection: "Dept", Attr: "dno"})))
	res, err := d.engine.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !res.Profile.Partial {
		t.Fatal("down wrapper should yield a partial result and profile")
	}
	// The down submit still gets a profile entry -- degraded runs must
	// not produce silently empty feedback.
	a, ok := res.Profile.Actual(subDept)
	if !ok {
		t.Fatal("excluded submit missing from profile")
	}
	if !a.Excluded || a.Wrapper != "rel1" || a.RowsOut != 0 || a.RoundTrips != 0 {
		t.Errorf("excluded submit actual = %+v", a)
	}
	if live, ok := res.Profile.Actual(subEmp); !ok || live.Excluded || live.RowsOut != 200 {
		t.Errorf("live submit actual = %+v", live)
	}
}
