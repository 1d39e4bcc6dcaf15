package optimizer

import (
	"fmt"
	"sync/atomic"
	"testing"

	"disco/internal/algebra"
	"disco/internal/history"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// equivalenceBlocks returns the query blocks the parallel search is
// checked against: a selective two-way join, a co-located pair, a
// three-way join with aggregation shape, and a four-way join spanning all
// three wrappers.
func equivalenceBlocks() map[string]*QueryBlock {
	eqJoin := func(lc, la, rc, ra string) algebra.Comparison {
		r := algebra.Ref{Collection: rc, Attr: ra}
		return algebra.Comparison{Left: algebra.Ref{Collection: lc, Attr: la}, Op: stats.CmpEQ, RightAttr: &r}
	}
	return map[string]*QueryBlock{
		"two-way": {
			Relations: []Rel{
				{Wrapper: "obj1", Collection: "Employee",
					Pred: algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"}, stats.CmpLT, types.Int(1200))},
				{Wrapper: "rel1", Collection: "Dept"},
			},
			JoinPreds: []algebra.Comparison{eqJoin("Employee", "dept", "Dept", "dno")},
		},
		"colocated": {
			Relations: []Rel{
				{Wrapper: "obj1", Collection: "Employee"},
				{Wrapper: "obj1", Collection: "Manager"},
			},
			JoinPreds: []algebra.Comparison{eqJoin("Employee", "dept", "Manager", "mdept")},
		},
		"three-way": {
			Relations: []Rel{
				{Wrapper: "obj1", Collection: "Employee",
					Pred: algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(500))},
				{Wrapper: "rel1", Collection: "Dept"},
				{Wrapper: "obj1", Collection: "Manager"},
			},
			JoinPreds: []algebra.Comparison{
				eqJoin("Employee", "dept", "Dept", "dno"),
				eqJoin("Manager", "mdept", "Dept", "dno"),
			},
			GroupBy: []algebra.Ref{{Collection: "Dept", Attr: "dname"}},
			Aggs:    []algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}},
		},
		"four-way": {
			Relations: []Rel{
				{Wrapper: "obj1", Collection: "Employee",
					Pred: algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(200))},
				{Wrapper: "rel1", Collection: "Dept"},
				{Wrapper: "obj1", Collection: "Manager"},
				{Wrapper: "files", Collection: "Docs"},
			},
			JoinPreds: []algebra.Comparison{
				eqJoin("Employee", "dept", "Dept", "dno"),
				eqJoin("Manager", "mdept", "Dept", "dno"),
				eqJoin("Docs", "did", "Employee", "id"),
			},
		},
	}
}

// TestParallelMatchesSequential is the equivalence gate of the search's
// worker pool: for every query block, every objective, both tree shapes
// and both memo settings, the plan chosen at Workers=2 and 4 must be
// bit-identical (plan structure and cost) to the Workers=1 plan. Run
// under -race this also exercises the sharing contract of the estimator
// clones, the memo table and the per-subset bounds.
func TestParallelMatchesSequential(t *testing.T) {
	f := buildFixture(t)
	for name, qb := range equivalenceBlocks() {
		for _, bushy := range []bool{false, true} {
			for _, objective := range []Objective{ObjectiveTotalTime, ObjectiveTimeFirst} {
				base := Options{Pruning: true, MaxDPRelations: 10, Bushy: bushy, Objective: objective, Workers: 1}
				f.opt.Opt = base
				want, err := f.opt.Optimize(qb)
				if err != nil {
					t.Fatalf("%s sequential: %v", name, err)
				}
				for _, memo := range []bool{false, true} {
					for _, workers := range []int{1, 2, 4} {
						if workers == 1 && !memo {
							continue // that is the baseline itself
						}
						label := fmt.Sprintf("%s/bushy=%v/obj=%d/memo=%v/workers=%d", name, bushy, objective, memo, workers)
						opts := base
						opts.Workers = workers
						opts.Memo = memo
						f.opt.Opt = opts
						got, err := f.opt.Optimize(qb)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !got.Plan.Equal(want.Plan) {
							t.Errorf("%s: plan differs from sequential\ngot:  %s\nwant: %s",
								label, got.Plan.Signature(), want.Plan.Signature())
						}
						if got.Cost.TotalTime() != want.Cost.TotalTime() {
							t.Errorf("%s: TotalTime %v, sequential %v", label, got.Cost.TotalTime(), want.Cost.TotalTime())
						}
						if !memo && got.PlansCosted != want.PlansCosted {
							// Without the memo every candidate is priced
							// exactly once (pruned ones count too), so the
							// counter is deterministic even in parallel.
							t.Errorf("%s: PlansCosted %d, sequential %d", label, got.PlansCosted, want.PlansCosted)
						}
						if !memo && got.MemoHits != 0 {
							t.Errorf("%s: MemoHits %d with memo disabled", label, got.MemoHits)
						}
					}
				}
			}
		}
	}
}

// scanOnly strips a wrapper's capabilities: selections over it stay at
// the mediator, above the submit.
type scanOnly struct{ wrapper.Wrapper }

func (scanOnly) Capabilities() wrapper.Capabilities { return wrapper.Capabilities{} }

// lateRuleView is an empty cache view whose fourth lookup has the history
// recorder publish a query-scope rule for the scan-only wrapper — what an
// execution finishing on another goroutine does to a search in flight.
type lateRuleView struct {
	lookups atomic.Int32
	rec     *history.Recorder
	t       *testing.T
}

func (v *lateRuleView) Lookup(algebra.Hash128) (int64, bool) {
	if v.lookups.Add(1) == 4 {
		if err := v.rec.Record(algebra.Submit(algebra.Project(algebra.Scan("raw", "Docs"), "did"), "raw"), 5, 7, 70); err != nil {
			v.t.Error(err)
		}
	}
	return 0, false
}

// TestRulePublishedMidSearch is the race regression for the estimator's
// exact-rule prefilter, which hashes every submit it visits once the
// submit's wrapper has a history rule. The scan-only wrapper's base plan
// is a mediator select over the submit, so the cache view is never asked
// about it, no exact rule exists when it is priced, and its submit enters
// level 2 unhashed. The view's first three lookups price the other base
// relations; the fourth is the co-located Employee-Manager candidate at
// the head of level 2, and publishes the rule while the level is being
// priced. The candidates that share the unhashed submit close the level.
// Under -race the workers must find its hash cached; at any worker count
// the outcome must be the same.
func TestRulePublishedMidSearch(t *testing.T) {
	eq := func(lc, la, rc, ra string) algebra.Comparison {
		r := algebra.Ref{Collection: rc, Attr: ra}
		return algebra.Comparison{Left: algebra.Ref{Collection: lc, Attr: la}, Op: stats.CmpEQ, RightAttr: &r}
	}
	qb := &QueryBlock{
		Relations: []Rel{
			{Wrapper: "obj1", Collection: "Employee"},
			{Wrapper: "obj1", Collection: "Manager"},
			{Wrapper: "rel1", Collection: "Dept"},
			{Wrapper: "raw", Collection: "Docs",
				Pred: algebra.NewSelPred(algebra.Ref{Collection: "Docs", Attr: "did"}, stats.CmpLT, types.Int(50))},
		},
		JoinPreds: []algebra.Comparison{
			eq("Employee", "dept", "Manager", "mdept"),
			eq("Docs", "did", "Employee", "id"),
			eq("Docs", "did", "Manager", "mid"),
			eq("Docs", "did", "Dept", "dno"),
		},
	}
	var want *Result
	for round := 0; round < 8; round++ {
		for _, workers := range []int{1, 2, 4} {
			f := buildFixture(t)
			if err := f.cat.Register(scanOnly{wrapper.NewFileWrapper("raw", f.fstore)}); err != nil {
				t.Fatal(err)
			}
			f.opt.Opt = Options{Pruning: true, MaxDPRelations: 10, Bushy: true, Workers: workers,
				CacheView: &lateRuleView{rec: history.NewRecorder(f.reg), t: t}}
			got, err := f.opt.Optimize(qb)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !got.Plan.Equal(want.Plan) || got.Cost.TotalTime() != want.Cost.TotalTime() || got.PlansCosted != want.PlansCosted {
				t.Fatalf("workers=%d: plan %s cost %v costed %d, want %s cost %v costed %d", workers,
					got.Plan.Signature(), got.Cost.TotalTime(), got.PlansCosted,
					want.Plan.Signature(), want.Cost.TotalTime(), want.PlansCosted)
			}
		}
	}
}

// TestMemoHitsGreedy checks the memo actually collapses the greedy
// search's repricing of surviving pairs.
func TestMemoHitsGreedy(t *testing.T) {
	f := buildFixture(t)
	qb := equivalenceBlocks()["four-way"]
	base := Options{MaxDPRelations: 2, Workers: 1} // force greedyJoin
	f.opt.Opt = base
	plain, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	base.Memo = true
	f.opt.Opt = base
	memod, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if !memod.Plan.Equal(plain.Plan) || memod.Cost.TotalTime() != plain.Cost.TotalTime() {
		t.Error("memo changed the greedy plan or its cost")
	}
	if memod.MemoHits == 0 {
		t.Error("greedy search with memo should hit the table (pairs are repriced every round)")
	}
	if memod.PlansCosted >= plain.PlansCosted {
		t.Errorf("memo should reduce estimations: %d with vs %d without", memod.PlansCosted, plain.PlansCosted)
	}
}

// TestWorkerCountResolution pins the Workers knob semantics.
func TestWorkerCountResolution(t *testing.T) {
	o := &Optimizer{}
	o.Opt.Workers = 3
	if got := o.workerCount(); got != 3 {
		t.Errorf("explicit Workers: got %d", got)
	}
	o.Opt.Workers = 0
	if got := o.workerCount(); got < 1 {
		t.Errorf("Workers=0 should resolve to GOMAXPROCS >= 1, got %d", got)
	}
}
