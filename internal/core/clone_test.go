package core

import (
	"sync"
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// TestCloneIsolatesOptions verifies the per-goroutine contract of Clone:
// option mutations (such as the pruning budget) never leak between
// clones, and Reset clears the budget.
func TestCloneIsolatesOptions(t *testing.T) {
	e := newTestEstimator(t)
	e.Options.RequiredVarsOnly = true
	e.Options.RootVars = []string{"TotalTime"}

	c := e.Clone()
	c.Options.Budget = 42
	c.Options.RootVars[0] = "TimeFirst"
	if e.Options.Budget != 0 {
		t.Errorf("budget leaked to the original: %v", e.Options.Budget)
	}
	if e.Options.RootVars[0] != "TotalTime" {
		t.Errorf("RootVars backing array shared: %v", e.Options.RootVars)
	}
	if !c.Options.RequiredVarsOnly {
		t.Error("clone should inherit option flags")
	}
	c.Reset()
	if c.Options.Budget != 0 {
		t.Errorf("Reset should clear the budget, got %v", c.Options.Budget)
	}
}

// TestCloneConcurrentEstimatesAgree runs one estimation per clone across
// goroutines and checks every clone reproduces the sequential estimate
// bit for bit (run under -race to check the sharing contract).
func TestCloneConcurrentEstimatesAgree(t *testing.T) {
	e := newTestEstimator(t)
	mkPlan := func() *algebra.Node {
		return resolve(t, algebra.Submit(
			algebra.Select(algebra.Scan("src1", "Employee"),
				algebra.NewSelPred(ref("Employee", "salary"), stats.CmpLT, types.Int(2000))),
			"src1"))
	}
	want := estimate(t, e, mkPlan()).TotalTime()

	const workers = 8
	// Resolve all plans on the test goroutine (resolve may t.Fatal).
	plans := make([]*algebra.Node, workers)
	for i := range plans {
		plans[i] = mkPlan()
	}
	got := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := e.Clone()
			if i%2 == 1 {
				c.Options.Budget = want * 10 // a loose budget must not change the value
			}
			pc, err := c.Estimate(plans[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = pc.TotalTime()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("worker %d: TotalTime %v, sequential %v", i, got[i], want)
		}
	}
}
