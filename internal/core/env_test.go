package core

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// TestNetPathResolution: submit rules read Net.Latency / Net.PerByte for
// the executing wrapper.
func TestNetPathResolution(t *testing.T) {
	e := newTestEstimator(t)
	src := `
submit(C) {
  CountObject = C.CountObject;
  TotalSize   = C.TotalSize;
  TotalTime   = C.TotalTime + Net.Latency * 3 + C.TotalSize * Net.PerByte;
}`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	plan := resolve(t, algebra.Submit(algebra.Scan("src1", "Employee"), "src1"))
	pc := estimate(t, e, plan)
	// scan 7945 + 3*10 latency + 1.2MB * 0.0005.
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 7945+30+600, 1)
}

// TestWrapperGlobalsShadowMediator: a wrapper's let PageSize overrides the
// mediator's PageSize for CountPage derivation.
func TestWrapperGlobalsShadowMediator(t *testing.T) {
	e := newTestEstimator(t)
	src := `
let PageSize = 8192;
scan(C) { TotalTime = C.CountPage; }`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	pc := estimate(t, e, resolve(t, algebra.Scan("src1", "Employee")))
	// 1_200_000 / 8192 rounded up = 147 (not the 293 pages of 4096B).
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 147, 0)
}

// TestSelectivityStringValue: the contextual selectivity() handles string
// attributes through the Fraction embedding.
func TestSelectivityStringValue(t *testing.T) {
	e := newTestEstimator(t)
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "name"), stats.CmpEQ, types.Str("Naacke"))))
	pc := estimate(t, e, plan)
	// name has 10000 distinct values: equality selects ~1.
	approx(t, "CountObject", pc.Root.Vars["CountObject"], 1, 1e-9)
}

// TestGroupsContextual: the aggregate group estimate uses distinct counts
// capped by input cardinality.
func TestGroupsContextual(t *testing.T) {
	e := newTestEstimator(t)
	// age has 50 distinct values -> 50 groups.
	plan := resolve(t, algebra.Aggregate(
		algebra.Submit(algebra.Scan("src1", "Employee"), "src1"),
		[]algebra.Ref{ref("Employee", "age")},
		[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}))
	pc := estimate(t, e, plan)
	approx(t, "CountObject", pc.Root.Vars["CountObject"], 50, 1e-9)

	// Grouping by a near-key attribute caps at input cardinality.
	plan2 := resolve(t, algebra.Aggregate(
		algebra.Submit(algebra.Scan("src1", "Manager"), "src1"),
		[]algebra.Ref{ref("Manager", "id")},
		[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}))
	pc2 := estimate(t, e, plan2)
	approx(t, "groups capped", pc2.Root.Vars["CountObject"], 500, 1e-9)
}

// TestUnionAndSortEstimates exercise the remaining generic rules.
func TestUnionAndSortEstimates(t *testing.T) {
	e := newTestEstimator(t)
	mk := func() *algebra.Node {
		return algebra.Submit(algebra.Scan("src1", "Manager"), "src1")
	}
	union := resolve(t, algebra.Union(mk(), mk()))
	pc := estimate(t, e, union)
	approx(t, "union CountObject", pc.Root.Vars["CountObject"], 1000, 1e-9)

	sorted := resolve(t, algebra.Sort(mk(), algebra.SortKey{Attr: ref("Manager", "id")}))
	pc2 := estimate(t, e, sorted)
	if pc2.Root.Vars["TimeFirst"] < pc2.ByNode[sorted.Children[0]].Vars["TotalTime"] {
		t.Error("a sort is blocking: TimeFirst should include the whole input")
	}

	dup := resolve(t, algebra.DupElim(mk()))
	pc3 := estimate(t, e, dup)
	approx(t, "dupelim CountObject", pc3.Root.Vars["CountObject"], 250, 1e-9) // 500 * 0.5
}

// TestDefProvidedSelectivityOverridesContextual: a wrapper def named
// selectivity wins over the contextual implementation (the paper's
// "ad-hoc function defined by the wrapper implementor").
func TestDefProvidedSelectivityOverridesContextual(t *testing.T) {
	e := newTestEstimator(t)
	src := `
def selectivity(a, v) = 0.5;
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  TotalTime = 1;
}`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(5000))))
	pc := estimate(t, e, plan)
	approx(t, "CountObject", pc.Root.Vars["CountObject"], 5000, 1e-6)
}

// TestAmbiguousSameLevelUsesRegistrationOrder: the paper's tiebreak.
func TestAmbiguousSameLevelUsesRegistrationOrder(t *testing.T) {
	e := newTestEstimator(t)
	e.Options.Trace = true
	src := `
select(Employee, salary = V) { TotalTime = 111; }
select(Employee, salary = V) { TotalTime = 222; }`
	if err := e.Registry.IntegrateWrapper("src1", mustParse(t, src), e.View); err != nil {
		t.Fatal(err)
	}
	plan := resolve(t, algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(1))))
	pc := estimate(t, e, plan)
	// Both match at the same level; min resolution yields 111 — and with
	// equal values, the first registered wins deterministically.
	approx(t, "TotalTime", pc.Root.Vars["TotalTime"], 111, 0)
}

// TestEstimateUnresolvedPlanUsesDefaults: estimation works on unresolved
// plans except where schemas are needed (Arity-based rules fail softly).
func TestEstimateWorksAfterClone(t *testing.T) {
	e := newTestEstimator(t)
	plan := resolve(t, algebra.Project(algebra.Scan("src1", "Employee"), "Employee.name"))
	pc1 := estimate(t, e, plan)
	pc2 := estimate(t, e, plan.Clone()) // Clone keeps schemas
	approx(t, "clone estimate", pc2.Root.TotalTime(), pc1.Root.TotalTime(), 1e-9)
}
