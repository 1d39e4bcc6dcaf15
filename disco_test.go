package disco

import (
	"strings"
	"testing"
)

// newTestDeployment builds a two-source deployment through the public
// API only.
func newTestDeployment(t *testing.T) *Mediator {
	t.Helper()
	m, err := NewMediator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	store := OpenObjectStore(m, DefaultObjectStoreConfig())
	emp, err := store.CreateCollection("Employee", NewSchema(
		Field("Employee", "id", KindInt),
		Field("Employee", "name", KindString),
		Field("Employee", "salary", KindInt),
	), 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := emp.Insert(Row{Int(int64(i)), Str("emp"), Int(int64(1000 + i%500))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.CreateIndex("id", true); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(NewObjectWrapper("hr", store)); err != nil {
		t.Fatal(err)
	}

	rel := OpenRelationalStore(m, DefaultRelationalStoreConfig())
	grades, err := rel.CreateTable("Grades", NewSchema(
		Field("Grades", "emp", KindInt),
		Field("Grades", "grade", KindInt),
	), 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		grades.Insert(Row{Int(int64(i)), Int(int64(1 + i%5))})
	}
	if err := m.Register(NewRelationalWrapper("school", rel)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublicAPIQuery(t *testing.T) {
	m := newTestDeployment(t)
	res, err := m.Query(`SELECT name, grade FROM Employee, Grades WHERE id = emp AND grade = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Errorf("rows = %d, want 200", len(res.Rows))
	}
	if res.Schema.Len() != 2 || res.ElapsedMS <= 0 {
		t.Errorf("result meta = %v, %v", res.Schema, res.ElapsedMS)
	}
}

func TestPublicAPIExplain(t *testing.T) {
	m := newTestDeployment(t)
	out, err := m.Explain(`SELECT name FROM Employee WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimated TotalTime") || !strings.Contains(out, "scan(Employee@hr)") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestPublicAPIStaticWrapper(t *testing.T) {
	m, err := NewMediator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewStaticWrapper("legacy", `
interface Part {
  attribute Long pid;
  attribute String label;
  cardinality extent(out long CountObject, out long TotalSize, out long ObjectSize);
  cardinality attribute(in String AttributeName, out Boolean Indexed,
                        out Long CountDistinct, out Constant Min, out Constant Max);
  cost {
    scan(Part) { TotalTime = Part.CountObject * 2; }
  }
};`)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DeclareExtent("Part", ExtentStats{CountObject: 50, TotalSize: 5000, ObjectSize: 100}); err != nil {
		t.Fatal(err)
	}
	if err := w.DeclareAttribute("Part", "pid", AttributeStats{
		CountDistinct: 50, Min: Int(0), Max: Int(49)}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Str("part")}
	}
	if err := w.Load("Part", rows); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	p, err := m.Prepare(`SELECT label FROM Part WHERE pid < 10`)
	if err != nil {
		t.Fatal(err)
	}
	// The declared scan rule (50 objects * 2 ms) must drive the estimate.
	if est := p.Cost.TotalTime(); est < 100 {
		t.Errorf("estimate %v should include the declared 100 ms scan", est)
	}
	res, err := m.ExecutePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestPublicAPIHistory(t *testing.T) {
	m := newTestDeployment(t)
	if m.History == nil {
		t.Fatal("default config should record history")
	}
	if _, err := m.Query(`SELECT name FROM Employee WHERE salary < 1100`); err != nil {
		t.Fatal(err)
	}
	if m.History.Len() == 0 {
		t.Error("executed subquery should be recorded")
	}
}

func TestAllVarsOrder(t *testing.T) {
	vars := AllVars()
	want := []string{"CountObject", "ObjectSize", "TotalSize", "TimeFirst", "TotalTime", "TimeNext"}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Errorf("vars[%d] = %s, want %s", i, vars[i], want[i])
		}
	}
}

func TestConstantsRoundTrip(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(2.5).AsFloat() != 2.5 ||
		Str("x").AsString() != "x" || !Bool(true).AsBool() {
		t.Error("value constructors broken")
	}
}
