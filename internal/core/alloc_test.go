package core

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// Steady-state allocation regressions for the estimation hot path. The
// optimizer prices every candidate of every search through EstimateRoot;
// after the estimator's scratch arena warms up, pricing a plan must not
// allocate at all. The budgets are hard ceilings enforced
// in CI (make ci) — raising them is a deliberate decision, not noise.

// allocPlan builds a moderately deep plan exercising selects, a join and
// a submit — the shapes candidate pricing sees.
func allocPlan(t testing.TB) *algebra.Node {
	t.Helper()
	left := algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(10000)))
	right := algebra.Scan("src1", "Manager")
	join := algebra.Join(
		algebra.Submit(left, "src1"), algebra.Submit(right, "src1"),
		algebra.NewJoinPred(ref("Employee", "id"), ref("Manager", "id")))
	return resolve(t, join)
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func TestEstimateRootSteadyStateAllocFree(t *testing.T) {
	skipUnderRace(t)
	e := newTestEstimator(t)
	plan := allocPlan(t)
	// Warm the scratch arena (context pool, match pool, VM stack).
	if _, err := e.EstimateRoot(plan); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.EstimateRoot(plan); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("EstimateRoot steady state allocates %.1f objects/run, want 0", avg)
	}
}

func TestEstimateRootRequiredVarsAllocFree(t *testing.T) {
	skipUnderRace(t)
	e := newTestEstimator(t)
	e.Options.RequiredVarsOnly = true
	e.Options.RootVars = []string{"TotalTime"}
	plan := allocPlan(t)
	if _, err := e.EstimateRoot(plan); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := e.EstimateRoot(plan); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("EstimateRoot (RequiredVarsOnly) allocates %.1f objects/run, want 0", avg)
	}
}

// TestEstimateRootTableHitAllocFree: inside a search, re-pricing a plan
// the search has priced reads its root from the table and allocates
// nothing.
func TestEstimateRootTableHitAllocFree(t *testing.T) {
	skipUnderRace(t)
	e := newTestEstimator(t)
	plan := allocPlan(t)
	e.BeginSearch()
	defer e.EndSearch()
	want, err := e.EstimateRoot(plan)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if got, err := e.EstimateRoot(plan); err != nil || got != want {
			t.Fatalf("table hit = %v, %v; want %v", got, err, want)
		}
	})
	if avg > 0 {
		t.Errorf("EstimateRoot table hit allocates %.1f objects/run, want 0", avg)
	}
}

// TestEstimateSteadyStateAllocBudget bounds the full Estimate path, which
// must still build the per-node result maps (they are the API) but nothing
// else: budget = a small constant per plan node.
func TestEstimateSteadyStateAllocBudget(t *testing.T) {
	skipUnderRace(t)
	e := newTestEstimator(t)
	plan := allocPlan(t)
	if _, err := e.Estimate(plan); err != nil {
		t.Fatal(err)
	}
	var nodes float64
	plan.Walk(func(*algebra.Node) bool { nodes++; return true })
	avg := testing.AllocsPerRun(100, func() {
		if _, err := e.Estimate(plan); err != nil {
			t.Fatal(err)
		}
	})
	// PlanCost + ByNode map + one NodeCost and one Vars map per node, with
	// headroom for map-internal allocations.
	budget := 2 + 6*nodes
	if avg > budget {
		t.Errorf("Estimate steady state allocates %.1f objects/run, budget %.0f", avg, budget)
	}
}
