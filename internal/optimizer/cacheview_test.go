package optimizer

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// catchAllView answers every submit hash with a fixed cardinality — the
// "everything is cached" extreme for pricing tests.
type catchAllView struct{ rows int64 }

func (v catchAllView) Lookup(algebra.Hash128) (int64, bool) { return v.rows, true }

// emptyView answers nothing; pricing must be identical to no view.
type emptyView struct{}

func (emptyView) Lookup(algebra.Hash128) (int64, bool) { return 0, false }

func cacheTestBlock() *QueryBlock {
	return &QueryBlock{
		Relations: []Rel{
			{Wrapper: "obj1", Collection: "Employee",
				Pred: algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "dept"}, stats.CmpEQ, types.Int(3))},
			{Wrapper: "rel1", Collection: "Dept"},
		},
		JoinPreds: []algebra.Comparison{{
			Left:      algebra.Ref{Collection: "Employee", Attr: "dept"},
			Op:        stats.CmpEQ,
			RightAttr: &algebra.Ref{Collection: "Dept", Attr: "dno"},
		}},
	}
}

// TestResultCacheViewPricesSubmits pins the ScopeCache access path: with
// a CacheView answering submit hashes, candidates are priced through the
// cache-hit formula (CachePricedPaths > 0); without one — or with a view
// that answers nothing — the search is untouched.
func TestResultCacheViewPricesSubmits(t *testing.T) {
	f := buildFixture(t)
	qb := cacheTestBlock()

	base, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if base.CachePricedPaths != 0 {
		t.Errorf("no view, CachePricedPaths = %d, want 0", base.CachePricedPaths)
	}

	f.opt.Opt.CacheView = emptyView{}
	empty, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if empty.CachePricedPaths != 0 {
		t.Errorf("empty view, CachePricedPaths = %d, want 0", empty.CachePricedPaths)
	}
	if empty.Plan.Signature() != base.Plan.Signature() {
		t.Error("an empty view changed the chosen plan")
	}

	f.opt.Opt.CacheView = catchAllView{rows: 10}
	cached, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if cached.CachePricedPaths == 0 {
		t.Error("catch-all view never priced a cache-hit access path")
	}
	if cached.Plan == nil || cached.Plan.OutSchema == nil {
		t.Fatal("cache-priced search returned an unresolved plan")
	}
}

// TestResultCacheViewParallelDeterminism pins the plan chosen with a
// cache view installed: the frozen view answers every search the same
// way, so two searches on fresh fixtures choose the same plan.
func TestResultCacheViewParallelDeterminism(t *testing.T) {
	var plans [2]string
	for i := range plans {
		f := buildFixture(t)
		f.opt.Opt.CacheView = catchAllView{rows: 7}
		res, err := f.opt.Optimize(cacheTestBlock())
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = res.Plan.Signature()
	}
	if plans[0] != plans[1] {
		t.Errorf("cache-view plans diverge:\n%s\n%s", plans[0], plans[1])
	}
}
