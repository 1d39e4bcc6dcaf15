package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"disco/internal/algebra"
	"disco/internal/costlang"
	"disco/internal/costvm"
	"disco/internal/stats"
	"disco/internal/types"
)

// newTestEstimator wires the default registry to the fixture catalog.
func newTestEstimator(t testing.TB) *Estimator {
	t.Helper()
	reg := MustDefaultRegistry()
	return NewEstimator(reg, newFixtureView(), UniformNet{Latency: 10, PerByte: 0.0005})
}

func resolve(t testing.TB, plan *algebra.Node) *algebra.Node {
	t.Helper()
	if err := algebra.Resolve(plan, fixtureSchemas()); err != nil {
		t.Fatal(err)
	}
	return plan
}

func estimate(t *testing.T, e *Estimator, plan *algebra.Node) *PlanCost {
	t.Helper()
	pc, err := e.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestGenericScanEstimate(t *testing.T) {
	e := newTestEstimator(t)
	plan := resolve(t, algebra.Scan("src1", "Employee"))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	// CountPage = ceil(1_200_000/4096) = 293.
	// TotalTime = 120 + 293*25 + 10000*0.05 = 7945.
	approx(t, "CountObject", v["CountObject"], 10000, 0)
	approx(t, "ObjectSize", v["ObjectSize"], 120, 0)
	approx(t, "TotalSize", v["TotalSize"], 1_200_000, 0)
	approx(t, "TimeFirst", v["TimeFirst"], 120, 0)
	approx(t, "TotalTime", v["TotalTime"], 7945, 0.5)
	approx(t, "TimeNext", v["TimeNext"], (7945.0-120)/10000, 1e-6)
}

func TestGenericIndexSelect(t *testing.T) {
	e := newTestEstimator(t)
	// salary is indexed with 10 000 distinct values: equality selects 1
	// object; the generic index formula applies.
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(10000))))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	approx(t, "CountObject", v["CountObject"], 1, 1e-9)
	approx(t, "TotalSize", v["TotalSize"], 120, 1e-6)
	approx(t, "TimeFirst", v["TimeFirst"], 130, 0)
	approx(t, "TotalTime", v["TotalTime"], 130+1*9.4, 1e-6)
}

func TestGenericSeqSelectFallsBack(t *testing.T) {
	e := newTestEstimator(t)
	// age is NOT indexed: the index formulas' require() fails and the
	// sequential rule supplies the times, while CountObject still comes
	// from the more specific A=V rule's selectivity.
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "age"), stats.CmpEQ, types.Int(30))))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	// sel = 1/50 -> 200 objects.
	approx(t, "CountObject", v["CountObject"], 200, 1e-9)
	// Sequential: scan 7945 + 10000*0.2 = 9945 (delivery charged at the
	// submit boundary, not here).
	approx(t, "TotalTime", v["TotalTime"], 9945, 1)
	approx(t, "TimeFirst", v["TimeFirst"], 120, 0) // inherits scan TimeFirst
}

func TestGenericRangeSelect(t *testing.T) {
	e := newTestEstimator(t)
	// salary < 8250: uniform in [1000,30000] -> sel = 0.25.
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpLT, types.Int(8250))))
	pc := estimate(t, e, plan)
	approx(t, "CountObject", pc.Root.Vars["CountObject"], 2500, 1)
	// Index path: 130 + 2500*9.4 = 23630; sequential: 7945+2000+2500*9 =
	// 32445. The estimator reports the indexed one (more specific level).
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 130+2500*9.4, 20)
}

func TestSubmitAddsCommunication(t *testing.T) {
	e := newTestEstimator(t)
	inner := algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(10000)))
	plan := resolve(t, algebra.Submit(inner, "src1"))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	// Inner 139.4 + 1 object * 9 delivery + latency 10 + 120 bytes *
	// 0.0005 = 158.46.
	approx(t, "TotalTime", v["TotalTime"], 158.46, 0.01)
	approx(t, "CountObject", v["CountObject"], 1, 1e-9)
}

func TestMediatorLocalSelectUsesLocalScope(t *testing.T) {
	e := newTestEstimator(t)
	e.Options.Trace = true
	// A select ABOVE a submit runs at the mediator: its cost must come
	// from the local-scope rule (MedPerPred), not the wrapper-generic
	// one, and never the index path (no index access through a submit).
	sub := algebra.Submit(algebra.Scan("src1", "Employee"), "src1")
	plan := resolve(t, algebra.Select(sub,
		algebra.NewSelPred(ref("Employee", "age"), stats.CmpEQ, types.Int(30))))
	pc := estimate(t, e, plan)
	nc := pc.ByNode[plan]
	if r := nc.ChosenRules["TotalTime"]; !strings.Contains(r, "[local") {
		t.Errorf("mediator select TotalTime chosen from %q, want local scope", r)
	}
	subCost := pc.ByNode[sub].Vars["TotalTime"]
	// Local filter: submit + 10000 * 0.006.
	approx(t, "TotalTime", nc.Vars["TotalTime"], subCost+10000*0.006, 0.5)
}

func TestJoinGenericEstimate(t *testing.T) {
	e := newTestEstimator(t)
	left := algebra.Submit(algebra.Scan("src1", "Employee"), "src1")
	right := algebra.Submit(algebra.Scan("src2", "Book"), "src2")
	plan := resolve(t, algebra.Join(left, right,
		algebra.NewJoinPred(ref("Employee", "id"), ref("Book", "author"))))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	// joinsel = 1/max(10000, 9000) -> card = 10000*50000/10000 = 50000.
	approx(t, "CountObject", v["CountObject"], 50000, 1)
	// The mediator hash join must beat nested loops:
	// hash extra = (10000+50000)*0.012 + 50000*0.004 = 920;
	// NL extra = 10000*50000*0.004 = 2,000,000.
	leftT := pc.ByNode[left].Vars["TotalTime"]
	rightT := pc.ByNode[right].Vars["TotalTime"]
	approx(t, "TotalTime", v["TotalTime"], leftT+rightT+920, 5)
}

func TestWrapperRuleOverridesGeneric(t *testing.T) {
	e := newTestEstimator(t)
	// The wrapper exports the paper's Figure 8 select rule; its TotalTime
	// must replace the generic estimate, while ObjectSize (not provided)
	// still comes from the generic model.
	src := `
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  TotalSize   = CountObject * C.ObjectSize;
  TotalTime   = C.TotalTime + C.TotalSize * 0.025;
}`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(2000))))
	pc := estimate(t, e, plan)
	v := pc.Root.Vars
	// Wrapper rule: scanTime 7945 + 1_200_000*0.025 = 37945.
	approx(t, "TotalTime", v["TotalTime"], 37945, 1)
	approx(t, "CountObject", v["CountObject"], 1, 1e-9)
	// ObjectSize fell through to the generic rule.
	approx(t, "ObjectSize", v["ObjectSize"], 120, 1e-9)
}

func TestMalformedWrapperRuleFallsBackToGeneric(t *testing.T) {
	e := newTestEstimator(t)
	// A wrapper ships a rule whose formula divides by zero at evaluation
	// time (the `1 - 1` denominator folds to 0 only after the non-literal
	// numerator blocks compile-time folding). The estimator must treat the
	// failing formula like an inapplicable rule — degrade to the generic
	// model — not panic or poison the estimate.
	src := `
select(C, A = V) {
  TotalTime = C.TotalTime / (1 - 1);
}`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(10000))))
	pc := estimate(t, e, plan)
	// Same numbers as TestGenericIndexSelect: the broken wrapper rule
	// contributed nothing.
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 130+1*9.4, 1e-6)
	approx(t, "CountObject", pc.Root.Vars["CountObject"], 1, 1e-9)
}

func TestCollectionScopeBeatsWrapperScope(t *testing.T) {
	e := newTestEstimator(t)
	src := `
scan(C) { TotalTime = 1000; }
scan(Employee) { TotalTime = 500; }`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	emp := estimate(t, e, resolve(t, algebra.Scan("src1", "Employee")))
	mgr := estimate(t, e, resolve(t, algebra.Scan("src1", "Manager")))
	approx(t, "Employee TotalTime", emp.Root.Vars["TotalTime"], 500, 0)
	approx(t, "Manager TotalTime", mgr.Root.Vars["TotalTime"], 1000, 0)
}

func TestMinResolutionAcrossSameLevel(t *testing.T) {
	e := newTestEstimator(t)
	src := `
scan(Employee) { TotalTime = 700; }
scan(Employee) { TotalTime = 300; }
scan(Employee) { TotalTime = 900; }`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	pc := estimate(t, e, resolve(t, algebra.Scan("src1", "Employee")))
	approx(t, "min TotalTime", pc.Root.Vars["TotalTime"], 300, 0)
}

func TestWrapperRulesDontLeakAcrossWrappers(t *testing.T) {
	e := newTestEstimator(t)
	if err := e.Registry.IntegrateWrapper("src1",
		mustParse(t, `scan(C) { TotalTime = 42; }`), e.View); err != nil {
		t.Fatal(err)
	}
	pc1 := estimate(t, e, resolve(t, algebra.Scan("src1", "Employee")))
	pc2 := estimate(t, e, resolve(t, algebra.Scan("src2", "Book")))
	approx(t, "src1 TotalTime", pc1.Root.Vars["TotalTime"], 42, 0)
	if pc2.Root.Vars["TotalTime"] == 42 {
		t.Error("src2 scan must not use src1's rule")
	}
}

func TestPaperYaoRuleEstimate(t *testing.T) {
	// Register the paper's Figure 13 rule for a 70 000-object, 1000-page
	// collection and verify the closed form.
	view := newFixtureView()
	view.extents["src1/AtomicParts"] = stats.ExtentStats{
		CountObject: 70000, TotalSize: 4096 * 1000, ObjectSize: 56}
	view.attrs["src1/AtomicParts/id"] = stats.AttributeStats{
		Indexed: true, CountDistinct: 70000, Min: types.Int(0), Max: types.Int(70000)}
	reg := MustDefaultRegistry()
	e := NewEstimator(reg, view, UniformNet{})

	src := `
let PageSize = 4096;
let IO = 25;
let Output = 9;
select(AtomicParts, id < V) {
  let CountPage = AtomicParts.TotalSize / PageSize;
  CountObject = AtomicParts.CountObject * (V - AtomicParts.id.Min) / (AtomicParts.id.Max - AtomicParts.id.Min);
  TotalSize   = CountObject * AtomicParts.ObjectSize;
  TotalTime   = IO * CountPage * (1 - exp(-1 * (CountObject / CountPage))) + CountObject * Output;
}`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	schemas := fixtureSchemas()
	schemas["src1/AtomicParts"] = types.NewSchema(
		types.Field{Name: "id", Collection: "AtomicParts", Type: types.KindInt})

	plan := algebra.Select(algebra.Scan("src1", "AtomicParts"),
		algebra.NewSelPred(ref("AtomicParts", "id"), stats.CmpLT, types.Int(35000)))
	if err := algebra.Resolve(plan, schemas); err != nil {
		t.Fatal(err)
	}
	pc, err := e.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	v := pc.Root.Vars
	approx(t, "CountObject", v["CountObject"], 35000, 1)
	// 25*1000*(1-e^-35) + 35000*9 = 340000.
	approx(t, "TotalTime", v["TotalTime"], 340000, 5)
}

func TestRequiredVarsMatchesFull(t *testing.T) {
	// Property: with RequiredVarsOnly the variables that ARE computed
	// agree with the full estimation, across a family of plans.
	plans := []func() *algebra.Node{
		func() *algebra.Node { return algebra.Scan("src1", "Employee") },
		func() *algebra.Node {
			return algebra.Select(algebra.Scan("src1", "Employee"),
				algebra.NewSelPred(ref("Employee", "salary"), stats.CmpLT, types.Int(9000)))
		},
		func() *algebra.Node {
			return algebra.Submit(algebra.Project(algebra.Scan("src1", "Employee"), "Employee.name"), "src1")
		},
		func() *algebra.Node {
			return algebra.Join(
				algebra.Submit(algebra.Scan("src1", "Employee"), "src1"),
				algebra.Submit(algebra.Scan("src2", "Book"), "src2"),
				algebra.NewJoinPred(ref("Employee", "id"), ref("Book", "author")))
		},
		func() *algebra.Node {
			return algebra.Sort(
				algebra.DupElim(algebra.Submit(algebra.Scan("src2", "Book"), "src2")),
				algebra.SortKey{Attr: ref("Book", "year")})
		},
		func() *algebra.Node {
			return algebra.Aggregate(algebra.Submit(algebra.Scan("src1", "Employee"), "src1"),
				[]algebra.Ref{ref("Employee", "age")},
				[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}})
		},
	}
	for i, mk := range plans {
		full := newTestEstimator(t)
		opt := newTestEstimator(t)
		opt.Options.RequiredVarsOnly = true
		opt.Options.RootVars = []string{"TotalTime"}

		p1 := resolve(t, mk())
		p2 := resolve(t, mk())
		pcFull := estimate(t, full, p1)
		pcOpt := estimate(t, opt, p2)
		if math.Abs(pcFull.Root.TotalTime()-pcOpt.Root.TotalTime()) > 1e-6 {
			t.Errorf("plan %d: optimized TotalTime %v != full %v", i,
				pcOpt.Root.TotalTime(), pcFull.Root.TotalTime())
		}
		if pcOpt.FormulaEvals > pcFull.FormulaEvals {
			t.Errorf("plan %d: optimization evaluated MORE formulas (%d > %d)",
				i, pcOpt.FormulaEvals, pcFull.FormulaEvals)
		}
	}
}

func TestTraversalCutOnConstantRule(t *testing.T) {
	// A wrapper rule with a constant TotalTime at the submit boundary
	// means nothing is required from the subtree; with the optimization
	// on, the recursion is cut (paper §4.2 optimization ii).
	e := newTestEstimator(t)
	e.Options.RequiredVarsOnly = true
	e.Options.RootVars = []string{"TotalTime"}
	src := `
submit(C) { TotalTime = 77; TimeFirst = 1; TimeNext = 1; CountObject = 10; TotalSize = 100; ObjectSize = 10; }`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	// NOTE: submit executes at the mediator boundary; its ctx.wrapper is
	// "" until inside. The rule above registered for src1 applies to
	// wrapper-site nodes only, so use a nested submit to exercise it.
	inner := algebra.Submit(algebra.Scan("src1", "Employee"), "src1")
	outer := resolve(t, algebra.Submit(inner, "src1"))
	pc := estimate(t, e, outer)
	// The outer submit is already at the src1 boundary, so the constant
	// rule matches it directly and nothing below is visited.
	if pc.NodesVisited > 1 {
		t.Errorf("visited %d nodes, expected traversal cut below the constant rule", pc.NodesVisited)
	}
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 77, 0)
}

func TestBranchAndBound(t *testing.T) {
	e := newTestEstimator(t)
	e.Options.Budget = 100 // far below the ~8s scan
	plan := resolve(t, algebra.Scan("src1", "Employee"))
	if _, err := e.Estimate(plan); err != ErrOverBudget {
		t.Errorf("err = %v, want ErrOverBudget", err)
	}
	e.Options.Budget = 1e12
	if _, err := e.Estimate(plan); err != nil {
		t.Errorf("generous budget should pass: %v", err)
	}
}

func TestStatslessWrapperUsesDefaults(t *testing.T) {
	// A collection the catalog knows nothing about estimates through
	// DefaultExtent — the "standard values, as usual" path.
	e := newTestEstimator(t)
	schemas := fixtureSchemas()
	schemas["src3/Stuff"] = types.NewSchema(types.Field{Name: "x", Collection: "Stuff", Type: types.KindInt})
	plan := algebra.Scan("src3", "Stuff")
	if err := algebra.Resolve(plan, schemas); err != nil {
		t.Fatal(err)
	}
	pc := estimate(t, e, plan)
	approx(t, "CountObject", pc.Root.Vars["CountObject"], float64(DefaultExtent.CountObject), 0)
	if pc.Root.Vars["TotalTime"] <= 0 {
		t.Error("default estimate should be positive")
	}
}

func TestQueryScopeRuleWins(t *testing.T) {
	// A query-scope (historical) rule outranks even predicate-scope
	// rules.
	e := newTestEstimator(t)
	if err := e.Registry.IntegrateWrapper("src1",
		mustParse(t, `select(Employee, salary = 10) { TotalTime = 500; }`), e.View); err != nil {
		t.Fatal(err)
	}
	prog := mustCompileConst(t, 123)
	e.Registry.AddQueryRule("src1", &Rule{
		Op: algebra.OpSelect,
		Terms: []HeadTerm{
			{Kind: TermCollection, Name: "Employee"},
			{Kind: TermCmp, Attr: "salary", Op: stats.CmpEQ, Value: types.Int(10), BoundVal: true},
		},
		Formulas: []Formula{{Var: "TotalTime", Prog: prog}},
	})
	plan := resolve(t, algebra.Submit(algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(10))), "src1"))
	pc := estimate(t, e, plan)
	sel := plan.Children[0]
	approx(t, "TotalTime", pc.ByNode[sel].Vars["TotalTime"], 123, 0)
}

func mustCompileConst(t *testing.T, v float64) *costvm.Program {
	t.Helper()
	e, err := costlang.ParseExpr(types.Float(v).String())
	if err != nil {
		t.Fatal(err)
	}
	p, err := costvm.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExplainOutput(t *testing.T) {
	e := newTestEstimator(t)
	e.Options.Trace = true
	plan := resolve(t, algebra.Submit(algebra.Scan("src1", "Employee"), "src1"))
	pc := estimate(t, e, plan)
	out := e.Explain(plan, pc)
	for _, want := range []string{"submit(@src1)", "scan(Employee@src1)", "TotalTime="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestEstimateDeterministicAndFinite: the estimator is a pure function of
// the plan — repeated estimates agree, and every computed variable is
// finite and non-negative, across randomized predicates.
func TestEstimateDeterministicAndFinite(t *testing.T) {
	e := newTestEstimator(t)
	attrs := []string{"id", "salary", "age"}
	ops := []stats.CmpOp{stats.CmpEQ, stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE, stats.CmpNE}
	f := func(attrPick, opPick uint8, val int16, wrapInSubmit bool) bool {
		pred := algebra.NewSelPred(
			ref("Employee", attrs[int(attrPick)%len(attrs)]),
			ops[int(opPick)%len(ops)],
			types.Int(int64(val)))
		var plan *algebra.Node = algebra.Select(algebra.Scan("src1", "Employee"), pred)
		if wrapInSubmit {
			plan = algebra.Submit(plan, "src1")
		}
		if err := algebra.Resolve(plan, fixtureSchemas()); err != nil {
			return false
		}
		pc1, err := e.Estimate(plan)
		if err != nil {
			return false
		}
		pc2, err := e.Estimate(plan)
		if err != nil {
			return false
		}
		for _, v := range AllVars() {
			a, b := pc1.Root.Var(v, -1), pc2.Root.Var(v, -1)
			if a != b {
				return false
			}
			if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
