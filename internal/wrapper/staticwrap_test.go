package wrapper

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// figure6IDL is the paper's Employee interface (Figures 3/4) with a cost
// section attached.
const figure6IDL = `
interface Employee {
  attribute Long salary;
  attribute String Name;
  short age();
  cardinality extent(out long CountObject, out long TotalSize, out long ObjectSize);
  cardinality attribute(in String AttributeName, out Boolean Indexed,
                        out Long CountDistinct, out Constant Min, out Constant Max);
  cost {
    select(Employee, salary = V) {
      CountObject = Employee.CountObject * selectivity(salary, V);
      TotalTime   = 120 + Employee.TotalSize * 0.012;
    }
  }
};
`

func newStatic(t *testing.T) *StaticWrapper {
	t.Helper()
	w, err := NewStaticWrapper("legacy", figure6IDL)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 6 statistics, hand-declared.
	if err := w.DeclareExtent("Employee", stats.ExtentStats{
		CountObject: 10000, TotalSize: 1_200_000, ObjectSize: 120}); err != nil {
		t.Fatal(err)
	}
	if err := w.DeclareAttribute("Employee", "salary", stats.AttributeStats{
		Indexed: true, CountDistinct: 10000,
		Min: types.Int(1000), Max: types.Int(30000)}); err != nil {
		t.Fatal(err)
	}
	if err := w.DeclareAttribute("Employee", "Name", stats.AttributeStats{
		Indexed: true, CountDistinct: 10000,
		Min: types.Str("Adiba"), Max: types.Str("Valduriez")}); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, types.Row{types.Int(int64(1000 + i*290)), types.Str("emp")})
	}
	if err := w.Load("Employee", rows); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestStaticWrapperDeclaration(t *testing.T) {
	w := newStatic(t)
	if got := w.Collections(); len(got) != 1 || got[0] != "Employee" {
		t.Errorf("collections = %v", got)
	}
	ext, ok := w.ExtentStats("Employee")
	if !ok || ext.CountObject != 10000 || ext.ObjectSize != 120 {
		t.Errorf("extent = %+v, %v", ext, ok)
	}
	ast, ok := w.AttributeStats("Employee", "salary")
	if !ok || !ast.Indexed || ast.Min.AsInt() != 1000 || ast.Max.AsInt() != 30000 {
		t.Errorf("salary stats = %+v", ast)
	}
	name, ok := w.AttributeStats("employee", "name")
	if !ok || name.Min.AsString() != "Adiba" {
		t.Errorf("name stats = %+v, %v", name, ok)
	}
	if w.CostRules() == "" {
		t.Error("cost section should be exported")
	}
	if w.Capabilities().Join {
		t.Error("declared wrapper should not join")
	}
}

func TestStaticWrapperExecute(t *testing.T) {
	w := newStatic(t)
	plan := algebra.Select(algebra.Scan("legacy", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"},
			stats.CmpLT, types.Int(2000)))
	if err := algebra.Resolve(plan, wrapperSchemaSource{w}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 1000, 1290, 1580, 1870
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.VirtualMS != 100*0.5 {
		t.Errorf("scan cost = %v, want 50", res.VirtualMS)
	}
}

func TestStaticWrapperErrors(t *testing.T) {
	if _, err := NewStaticWrapper("x", `interface T { attribute bogus x; };`); err == nil {
		t.Error("bad IDL should fail")
	}
	w := newStatic(t)
	if err := w.Load("Nope", nil); err == nil {
		t.Error("unknown collection should fail")
	}
	if err := w.Load("Employee", []types.Row{{types.Int(1)}}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := w.DeclareExtent("Nope", stats.ExtentStats{}); err == nil {
		t.Error("unknown collection extent should fail")
	}
	if err := w.DeclareAttribute("Employee", "bogus", stats.AttributeStats{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	// IDL without cardinality methods cannot declare statistics.
	w2, err := NewStaticWrapper("bare", `interface T { attribute long x; };`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.DeclareExtent("T", stats.ExtentStats{}); err == nil {
		t.Error("extent without cardinality method should fail")
	}
	if err := w2.DeclareAttribute("T", "x", stats.AttributeStats{}); err == nil {
		t.Error("attribute without cardinality method should fail")
	}
	if w2.CostRules() != "" {
		t.Error("bare IDL exports no rules")
	}
}
