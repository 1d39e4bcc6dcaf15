package history

import (
	"strings"
	"sync"
	"testing"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/stats"
	"disco/internal/types"
)

// histView is a minimal CatalogView for these tests.
type histView struct{}

func (histView) HasCollection(w, c string) bool { return c == "Employee" }
func (histView) HasAttribute(w, c, a string) bool {
	return a == "id" || a == "salary"
}
func (histView) Extent(w, c string) (stats.ExtentStats, bool) {
	return stats.ExtentStats{CountObject: 1000, TotalSize: 100000, ObjectSize: 100}, true
}
func (histView) Attribute(w, c, a string) (stats.AttributeStats, bool) {
	return stats.AttributeStats{Indexed: a == "id", CountDistinct: 1000,
		Min: types.Int(0), Max: types.Int(1000)}, true
}

func subplan() *algebra.Node { return salaryEq(42) }

func salaryEq(v int64) *algebra.Node {
	return algebra.Select(algebra.Scan("w1", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpEQ, types.Int(v)))
}

// submit is the node the engine hands the recorder: the subplan under
// its submit boundary.
func submit(sub *algebra.Node) *algebra.Node { return algebra.Submit(sub, "w1") }

func resolveHist(t *testing.T, n *algebra.Node) *algebra.Node {
	t.Helper()
	schemas := algebra.FixedSchemas{"w1/Employee": types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	)}
	if err := algebra.Resolve(n, schemas); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRecordInjectsQueryRule(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	if err := rec.Record(submit(subplan()), 1234, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("Len = %d", rec.Len())
	}
	est := core.NewEstimator(reg, histView{}, core.UniformNet{})
	plan := resolveHist(t, algebra.Submit(subplan(), "w1"))
	pc, err := est.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Root.TotalTime(); got != 1234 {
		t.Errorf("historical estimate = %v, want 1234", got)
	}
	if got := pc.Root.Var("CountObject", -1); got != 50 {
		t.Errorf("historical cardinality = %v, want 50", got)
	}
	// A *different* subquery (other constant) must not match the
	// query-scope rule.
	other := resolveHist(t, submit(salaryEq(99)))
	pc2, err := est.Estimate(other)
	if err != nil {
		t.Fatal(err)
	}
	if pc2.Root.TotalTime() == 1234 {
		t.Error("query-scope rule leaked to a different subquery")
	}
}

func TestRecordAveragesRepetitions(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	if err := rec.Record(submit(subplan()), 1000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(submit(subplan()), 2000, 50, 5000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("repetitions should share one entry, Len = %d", rec.Len())
	}
	v, ok := rec.Lookup(submit(subplan()))
	if !ok || v.TotalTimeMS != 1500 || v.Samples != 2 {
		t.Errorf("vector = %+v, %v", v, ok)
	}
	// The injected rule was replaced.
	est := core.NewEstimator(reg, histView{}, core.UniformNet{})
	plan := resolveHist(t, algebra.Submit(subplan(), "w1"))
	pc, err := est.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := pc.Root.TotalTime(); got != 1500 {
		t.Errorf("updated estimate = %v, want 1500", got)
	}
}

func TestRecordErrors(t *testing.T) {
	rec := NewRecorder(core.MustDefaultRegistry())
	if err := rec.Record(algebra.Submit(subplan(), ""), 1, 1, 1); err == nil {
		t.Error("empty wrapper should fail")
	}
	if err := rec.Record(nil, 1, 1, 1); err == nil {
		t.Error("nil plan should fail")
	}
	if err := rec.Record(subplan(), 1, 1, 1); err == nil {
		t.Error("a node that is not a submit should fail")
	}
	if _, ok := rec.Lookup(submit(subplan())); ok {
		t.Error("lookup of unrecorded plan should miss")
	}
}

func TestSummary(t *testing.T) {
	rec := NewRecorder(core.MustDefaultRegistry())
	rec.Record(submit(subplan()), 500, 10, 100)
	s := rec.Summary()
	if !strings.Contains(s, "@w1") || !strings.Contains(s, "500.0 ms") {
		t.Errorf("summary = %q", s)
	}
}

// TestPublishedRuleGolden pins what a sequence of observations publishes:
// the six constant formulas and the Source string, value for value what
// rendering each float to text and compiling it back produced.
func TestPublishedRuleGolden(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	for _, o := range []struct {
		ms          float64
		rows, bytes int64
	}{{1000, 50, 5000}, {2000.5, 70, 7100}, {1234.5678, 3, 10}} {
		if err := rec.Record(submit(subplan()), o.ms, o.rows, o.bytes); err != nil {
			t.Fatal(err)
		}
	}
	rules := reg.WrapperRules("w1")
	if len(rules) != 1 {
		t.Fatalf("%d rules published, want 1", len(rules))
	}
	r := rules[0]
	if r.Source != "history w1 (3 samples)" || r.Scope != core.ScopeQuery || r.Specificity != 0 || r.Op != algebra.OpSubmit {
		t.Errorf("rule = %q scope %s specificity %d op %s", r.Source, r.Scope, r.Specificity, r.Op)
	}
	want := []struct {
		name string
		val  types.Constant
	}{
		{"CountObject", types.Int(41)},
		{"ObjectSize", types.Float(98.45528455284553)},
		{"TotalSize", types.Float(4036.6666666666665)},
		{"TimeFirst", types.Float(1411.6892666666665)},
		{"TotalTime", types.Float(1411.6892666666665)},
		{"TimeNext", types.Int(0)},
	}
	if len(r.Formulas) != len(want) {
		t.Fatalf("%d formulas, want %d", len(r.Formulas), len(want))
	}
	for i, w := range want {
		f := r.Formulas[i]
		got, err := f.Prog.Eval(nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.Var != w.name || got.Kind() != w.val.Kind() || got.String() != w.val.String() || f.Prog.Source != w.val.String() {
			t.Errorf("formula %d: %s = %s (%s, source %q), want %s = %s (%s)",
				i, f.Var, got, got.Kind(), f.Prog.Source, w.name, w.val, w.val.Kind())
		}
	}
}

// TestRecorderIsBounded: never-repeated subqueries must not grow the
// recorder or the registry without bound (§4.3.1's proliferation). Past
// maxShapes the least recently observed shape goes, rule and all.
func TestRecorderIsBounded(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	base := reg.RuleCount()
	const shapes = 10000
	for i := 0; i < shapes; i++ {
		if err := rec.Record(submit(salaryEq(int64(i))), float64(100+i), 5, 50); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		// Shape 0 is observed over and over: recency, not age, decides.
		if err := rec.Record(submit(salaryEq(0)), 100, 5, 50); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() != maxShapes {
		t.Errorf("Len = %d, want the cap %d", rec.Len(), maxShapes)
	}
	if got := reg.RuleCount() - base; got != maxShapes {
		t.Errorf("registry holds %d history rules, want the cap %d", got, maxShapes)
	}
	if v, ok := rec.Lookup(submit(salaryEq(0))); !ok || v.Samples != shapes {
		t.Errorf("the hot shape was evicted: %+v, %v", v, ok)
	}
	if _, ok := rec.Lookup(submit(salaryEq(shapes - 1))); !ok {
		t.Error("the newest shape is missing")
	}

	est := core.NewEstimator(reg, histView{}, core.UniformNet{})
	totalTime := func(salary int64) float64 {
		t.Helper()
		rc, err := est.EstimateRoot(resolveHist(t, submit(salaryEq(salary))))
		if err != nil {
			t.Fatal(err)
		}
		return rc.TotalTime()
	}
	// An evicted shape is gone from the estimator too, and observing it
	// again simply records it again.
	const evicted = 1
	if _, ok := rec.Lookup(submit(salaryEq(evicted))); ok {
		t.Fatal("an old cold shape survived")
	}
	if got := totalTime(evicted); got == 100+evicted {
		t.Error("the evicted shape's rule is still published")
	}
	if err := rec.Record(submit(salaryEq(evicted)), 4321, 5, 50); err != nil {
		t.Fatal(err)
	}
	if got := totalTime(evicted); got != 4321 {
		t.Errorf("re-recorded shape estimates %v, want 4321", got)
	}
	if v, _ := rec.Lookup(submit(salaryEq(evicted))); v.Samples != 1 {
		t.Errorf("re-recorded shape has %d samples, want a fresh 1", v.Samples)
	}
	if rec.Len() != maxShapes || reg.RuleCount()-base != maxShapes {
		t.Errorf("after re-recording: Len %d, %d rules, want %d of each", rec.Len(), reg.RuleCount()-base, maxShapes)
	}

	// A re-registration drops the rules under the recorder; the next
	// observation of a remembered shape publishes again.
	reg.DropWrapper("w1")
	if got := totalTime(0); got == 100 {
		t.Error("DropWrapper left a history rule published")
	}
	if err := rec.Record(submit(salaryEq(0)), 100, 5, 50); err != nil {
		t.Fatal(err)
	}
	if got := totalTime(0); got != 100 {
		t.Errorf("shape re-observed after DropWrapper estimates %v, want 100", got)
	}
}

// TestConcurrentRecordAndEstimate: executions publish observations while
// plan searches estimate the same submits (run under -race).
func TestConcurrentRecordAndEstimate(t *testing.T) {
	reg := core.MustDefaultRegistry()
	rec := NewRecorder(reg)
	const shapes = 8
	plans := make([]*algebra.Node, shapes)
	for i := range plans {
		plans[i] = resolveHist(t, submit(salaryEq(int64(i))))
		plans[i].StructuralHash() // as Prepare does before a plan is shared
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := rec.Record(plans[i%shapes], 250, 5, 50); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			est := core.NewEstimator(reg, histView{}, core.UniformNet{})
			for i := 0; i < 2000; i++ {
				if _, err := est.EstimateRoot(plans[i%shapes]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range plans {
		rc, err := core.NewEstimator(reg, histView{}, core.UniformNet{}).EstimateRoot(p)
		if err != nil {
			t.Fatal(err)
		}
		if rc.TotalTime() != 250 {
			t.Errorf("TotalTime = %v, want the recorded 250", rc.TotalTime())
		}
	}
}
