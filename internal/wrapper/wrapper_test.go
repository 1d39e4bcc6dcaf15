package wrapper

import (
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/costlang"
	"disco/internal/filestore"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
)

func empSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Employee", Type: types.KindString},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	)
}

func newObjWrapper(t *testing.T, n int) *ObjWrapper {
	t.Helper()
	store := objstore.Open(objstore.DefaultConfig())
	c, err := store.CreateCollection("Employee", empSchema(), 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{types.Int(int64(i)),
			types.Str([]string{"ana", "bob", "cyd", "dee"}[i%4]),
			types.Int(int64(1000 + i%100))}
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("id", true); err != nil {
		t.Fatal(err)
	}
	return NewObjWrapper("obj1", store)
}

func resolveAt(t *testing.T, w Wrapper, plan *algebra.Node) *algebra.Node {
	t.Helper()
	src := wrapperSchemaSource{w}
	if err := algebra.Resolve(plan, src); err != nil {
		t.Fatal(err)
	}
	return plan
}

// wrapperSchemaSource resolves plans directly against one wrapper.
type wrapperSchemaSource struct{ w Wrapper }

func (s wrapperSchemaSource) CollectionSchema(_, collection string) (*types.Schema, error) {
	return s.w.Schema(collection)
}

func selPred(attr string, op stats.CmpOp, v int64) *algebra.Predicate {
	return algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: attr}, op, types.Int(v))
}

func TestObjWrapperRegistration(t *testing.T) {
	w := newObjWrapper(t, 400)
	if w.Name() != "obj1" {
		t.Error("name")
	}
	if got := w.Collections(); len(got) != 1 || got[0] != "Employee" {
		t.Errorf("collections = %v", got)
	}
	if _, err := w.Schema("Nope"); err == nil {
		t.Error("unknown collection should fail")
	}
	ext, ok := w.ExtentStats("Employee")
	if !ok || ext.CountObject != 400 {
		t.Errorf("extent = %+v, %v", ext, ok)
	}
	ast, ok := w.AttributeStats("Employee", "id")
	if !ok || !ast.Indexed || !ast.Clustered || ast.CountDistinct != 400 {
		t.Errorf("id stats = %+v, %v", ast, ok)
	}
	if _, ok := w.AttributeStats("Employee", "zzz"); ok {
		t.Error("unknown attribute stats should miss")
	}
	// The exported rules must parse.
	f, err := costlang.Parse(w.CostRules())
	if err != nil {
		t.Fatalf("exported rules do not parse: %v", err)
	}
	if len(f.Rules) < 8 {
		t.Errorf("exported %d rules, expected a full set", len(f.Rules))
	}
}

func TestObjWrapperExecuteScanSelect(t *testing.T) {
	w := newObjWrapper(t, 400)
	plan := resolveAt(t, w, algebra.Select(
		algebra.Scan("obj1", "Employee"), selPred("salary", stats.CmpGE, 1090)))
	res, err := w.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 { // salary in 1000..1099 uniform, >=1090 -> 10%
		t.Errorf("rows = %d, want 40", len(res.Rows))
	}
	if res.Schema.Len() != 3 || res.Bytes <= 0 {
		t.Errorf("result meta = %v, %d", res.Schema, res.Bytes)
	}
	if res.VirtualMS <= 0 {
		t.Error("execution should take virtual time")
	}
}

// TestObjWrapperIndexSelectResidual: a multi-conjunct selection answers
// one conjunct through the index and filters the rest over the rows the
// index returned.
func TestObjWrapperIndexSelectResidual(t *testing.T) {
	w := newObjWrapper(t, 400)
	pred := selPred("id", stats.CmpLT, 40).And(selPred("salary", stats.CmpGE, 1030))
	res, err := w.Execute(resolveAt(t, w, algebra.Select(algebra.Scan("obj1", "Employee"), pred)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // ids 30..39 carry salaries 1030..1039
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].AsInt() < 30 || r[0].AsInt() >= 40 {
			t.Errorf("row %s escaped the residual filter", r)
		}
	}
}

func TestObjWrapperIndexVsSeqTiming(t *testing.T) {
	w := newObjWrapper(t, 4000)

	w.Store().ResetBuffer()
	planIdx := resolveAt(t, w, algebra.Select(
		algebra.Scan("obj1", "Employee"), selPred("id", stats.CmpEQ, 7)))
	res, err := w.Execute(planIdx)
	if err != nil {
		t.Fatal(err)
	}
	idxTime := res.VirtualMS
	if len(res.Rows) != 1 {
		t.Fatalf("index probe rows = %d", len(res.Rows))
	}

	w.Store().ResetBuffer()
	planSeq := resolveAt(t, w, algebra.Select(
		algebra.Scan("obj1", "Employee"), selPred("salary", stats.CmpEQ, 1007)))
	res, err = w.Execute(planSeq)
	if err != nil {
		t.Fatal(err)
	}
	seqTime := res.VirtualMS
	if idxTime*10 > seqTime {
		t.Errorf("index probe (%v ms) should be much cheaper than seq scan (%v ms)", idxTime, seqTime)
	}
}

func TestObjWrapperFullPlanShapes(t *testing.T) {
	w := newObjWrapper(t, 400)
	// project(sort(dupelim(select)))
	plan := resolveAt(t, w,
		algebra.Project(
			algebra.Sort(
				algebra.DupElim(
					algebra.Project(
						algebra.Select(algebra.Scan("obj1", "Employee"), selPred("salary", stats.CmpLT, 1010)),
						"Employee.name")),
				algebra.SortKey{Attr: algebra.Ref{Attr: "name"}, Desc: true}),
			"name"))
	res, err := w.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("distinct names = %d, want 4: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].AsString() != "dee" {
		t.Errorf("desc sort first = %v", res.Rows[0])
	}

	// aggregate
	agg := resolveAt(t, w, algebra.Aggregate(
		algebra.Scan("obj1", "Employee"),
		[]algebra.Ref{{Collection: "Employee", Attr: "name"}},
		[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}))
	res, err = w.Execute(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].AsInt() != 100 {
		t.Errorf("aggregate = %v", res.Rows)
	}

	// union + join
	u := resolveAt(t, w, algebra.Union(
		algebra.Select(algebra.Scan("obj1", "Employee"), selPred("id", stats.CmpLT, 10)),
		algebra.Select(algebra.Scan("obj1", "Employee"), selPred("id", stats.CmpGE, 390))))
	res, err = w.Execute(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Errorf("union = %d rows", len(res.Rows))
	}

	j := resolveAt(t, w, algebra.Join(
		algebra.Select(algebra.Scan("obj1", "Employee"), selPred("id", stats.CmpLT, 5)),
		algebra.Scan("obj1", "Employee"),
		algebra.NewJoinPred(algebra.Ref{Collection: "Employee", Attr: "id"}, algebra.Ref{Attr: "id"})))
	res, err = w.Execute(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Rows[0]) != 6 {
		t.Errorf("join = %d rows of width %d", len(res.Rows), len(res.Rows[0]))
	}
}

func TestObjWrapperRejectsNestedSubmit(t *testing.T) {
	w := newObjWrapper(t, 10)
	plan := resolveAt(t, w, algebra.Scan("obj1", "Employee"))
	bad := algebra.Submit(plan, "obj1")
	bad.OutSchema = plan.OutSchema
	if _, err := w.Execute(bad); err == nil {
		t.Error("nested submit should be rejected")
	}
}

func TestRelWrapperExecuteAndRules(t *testing.T) {
	store := relstore.Open(relstore.DefaultConfig())
	tb, err := store.CreateTable("Book", types.NewSchema(
		types.Field{Name: "id", Collection: "Book", Type: types.KindInt},
		types.Field{Name: "author", Collection: "Book", Type: types.KindInt},
	), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tb.Insert(types.Row{types.Int(int64(i)), types.Int(int64(i % 50))})
	}
	if err := tb.CreateHashIndex("author"); err != nil {
		t.Fatal(err)
	}
	w := NewRelWrapper("rel1", store)
	if _, err := costlang.Parse(w.CostRules()); err != nil {
		t.Fatalf("rel rules do not parse: %v", err)
	}
	plan := algebra.Select(algebra.Scan("rel1", "Book"),
		algebra.NewSelPred(algebra.Ref{Collection: "Book", Attr: "author"}, stats.CmpEQ, types.Int(7)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{w}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("probe rows = %d, want 10", len(res.Rows))
	}
	ext, ok := w.ExtentStats("Book")
	if !ok || ext.CountObject != 500 {
		t.Errorf("extent = %+v", ext)
	}
}

func TestFileWrapperIsOpaque(t *testing.T) {
	store := filestore.Open(filestore.DefaultConfig())
	f, err := store.CreateFile("Docs", types.NewSchema(
		types.Field{Name: "id", Collection: "Docs", Type: types.KindInt},
		types.Field{Name: "title", Collection: "Docs", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, title := range []string{"alpha", "beta", "gamma"} {
		if err := f.Append(types.Row{types.Int(int64(i + 1)), types.Str(title)}); err != nil {
			t.Fatal(err)
		}
	}
	w := NewFileWrapper("files", store)
	if w.CostRules() != "" {
		t.Error("file wrapper must export no rules")
	}
	if _, ok := w.ExtentStats("Docs"); ok {
		t.Error("file wrapper must export no stats")
	}
	if w.Capabilities().Join {
		t.Error("file wrapper must not advertise joins")
	}
	plan := algebra.Select(algebra.Scan("files", "Docs"),
		algebra.NewSelPred(algebra.Ref{Collection: "Docs", Attr: "id"}, stats.CmpGT, types.Int(1)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{w}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// A join pushed at the file wrapper must be refused.
	j := algebra.Join(algebra.Scan("files", "Docs"), algebra.Scan("files", "Docs"),
		algebra.NewJoinPred(algebra.Ref{Attr: "id"}, algebra.Ref{Attr: "id"}))
	if err := algebra.Resolve(j, wrapperSchemaSource{w}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(j); err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("join at file wrapper: err = %v", err)
	}
}

func TestCapabilitiesSupports(t *testing.T) {
	all := AllCapabilities()
	kinds := []algebra.OpKind{algebra.OpScan, algebra.OpSelect, algebra.OpProject,
		algebra.OpSort, algebra.OpJoin, algebra.OpUnion, algebra.OpDupElim, algebra.OpAggregate}
	for _, k := range kinds {
		if !all.Supports(k) {
			t.Errorf("all capabilities should support %s", k)
		}
	}
	if all.Supports(algebra.OpSubmit) {
		t.Error("submit is never wrapper-executable")
	}
	var none Capabilities
	if !none.Supports(algebra.OpScan) {
		t.Error("every wrapper can scan")
	}
	if none.Supports(algebra.OpSelect) {
		t.Error("empty capabilities should refuse select")
	}
}

func TestExecuteUnresolvedPlanFails(t *testing.T) {
	w := newObjWrapper(t, 10)
	if _, err := w.Execute(algebra.Scan("obj1", "Employee")); err == nil {
		t.Error("unresolved plan should be rejected")
	}
}
