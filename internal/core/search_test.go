package core_test

import (
	"fmt"
	"testing"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/optimizer"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// spyView hands the test the estimator's running search: the scan
// formulas read extents on every search, so the last state seen is the
// search's, complete once Optimize returns.
type spyView struct {
	core.CatalogView
	est   *core.Estimator
	table *core.SearchState
}

func (v *spyView) Extent(w, c string) (stats.ExtentStats, bool) {
	if t := core.LiveSearch(v.est); t != nil {
		v.table = t
	}
	return v.CatalogView.Extent(w, c)
}

// chordSearch builds the 7-relation join chain with chords over an object
// and a relational wrapper (the root BenchmarkOptimize workload) and an
// optimizer whose estimator reports its searches to the returned view.
func chordSearch(t *testing.T) (*optimizer.Optimizer, *optimizer.QueryBlock, *spyView) {
	t.Helper()
	ostore := objstore.Open(objstore.DefaultConfig())
	rstore := relstore.Open(relstore.DefaultConfig())
	sizes := []int{2000, 120, 900, 60, 1500, 300, 45}
	rels := make([]optimizer.Rel, len(sizes))
	var joins []algebra.Comparison
	join := func(l, r int) {
		ref := algebra.Ref{Collection: fmt.Sprintf("C%d", r), Attr: "id"}
		joins = append(joins, algebra.Comparison{
			Left: algebra.Ref{Collection: fmt.Sprintf("C%d", l), Attr: "fk"}, Op: stats.CmpEQ, RightAttr: &ref})
	}
	for i, size := range sizes {
		name := fmt.Sprintf("C%d", i)
		schema := types.NewSchema(
			types.Field{Name: "id", Collection: name, Type: types.KindInt},
			types.Field{Name: "fk", Collection: name, Type: types.KindInt},
		)
		if i%2 == 0 {
			coll, err := ostore.CreateCollection(name, schema, 64)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < size; r++ {
				coll.Insert(types.Row{types.Int(int64(r)), types.Int(int64(r % 50))})
			}
			rels[i] = optimizer.Rel{Wrapper: "obj1", Collection: name}
		} else {
			tbl, err := rstore.CreateTable(name, schema, 48)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < size; r++ {
				tbl.Insert(types.Row{types.Int(int64(r)), types.Int(int64(r % 50))})
			}
			rels[i] = optimizer.Rel{Wrapper: "rel1", Collection: name}
		}
		if i > 0 {
			join(i-1, i)
		}
	}
	join(0, 3)
	join(2, 6)
	rels[0].Pred = algebra.NewSelPred(algebra.Ref{Collection: "C0", Attr: "id"}, stats.CmpLT, types.Int(400))

	cat := catalog.New()
	reg := core.MustDefaultRegistry()
	for _, w := range []wrapper.Wrapper{wrapper.NewObjWrapper("obj1", ostore), wrapper.NewRelWrapper("rel1", rstore)} {
		if err := cat.Register(w); err != nil {
			t.Fatal(err)
		}
		file, err := costlang.Parse(w.CostRules())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.IntegrateWrapper(w.Name(), file, cat); err != nil {
			t.Fatal(err)
		}
	}
	view := &spyView{CatalogView: cat}
	view.est = core.NewEstimator(reg, view, netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005}))
	return optimizer.New(cat, view.est, optimizer.DefaultOptions()), &optimizer.QueryBlock{Relations: rels, JoinPreds: joins}, view
}

// TestSearchTableMatchesUncached is the node table's equivalence
// property: after one search, every candidate's recorded root cost equals
// a full, uncached EstimateRoot of the candidate bit for bit, with
// required-variable pruning on and off.
func TestSearchTableMatchesUncached(t *testing.T) {
	for _, required := range []bool{false, true} {
		label := fmt.Sprintf("required=%v", required)
		opt, qb, view := chordSearch(t)
		if required {
			opt.Est.Options.RequiredVarsOnly = true
			opt.Est.Options.RootVars = []string{"TimeFirst", "TotalTime"}
		}
		res, err := opt.Optimize(qb)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		roots := view.table.RootEntries(opt.Est)
		// Every candidate is a root entry, and so is the chosen plan.
		if len(roots) < res.PlansCosted-1 {
			t.Fatalf("%s: %d root entries for %d candidates", label, len(roots), res.PlansCosted-1)
		}
		uncached := opt.Est.Clone()
		for n, recorded := range roots {
			full, err := uncached.EstimateRoot(n)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !core.SameBits(recorded, full) {
				t.Fatalf("%s: recorded TotalTime %v, uncached %v for %s", label,
					recorded.TotalTime(), full.TotalTime(), n.Signature())
			}
		}
	}
}

// TestSearchPricesEachNodeOnce checks that one Optimize applies the cost
// formulas exactly once per distinct (node, site) it prices: a candidate
// costs its new nodes, and its inputs come from the table.
func TestSearchPricesEachNodeOnce(t *testing.T) {
	opt, qb, view := chordSearch(t)
	res, err := opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	applied, distinct := view.table.Applied(), view.table.DistinctNodeSites()
	if applied != distinct {
		t.Errorf("apply ran %d times over %d distinct (node, site) keys", applied, distinct)
	}
	// A left-deep candidate adds one or two nodes to priced inputs.
	if applied > 2*res.PlansCosted {
		t.Errorf("applied %d times for %d candidates", applied, res.PlansCosted)
	}
}

// TestSearchRemembersAttrStats checks the statistics a search remembers
// per (node, attribute) against the walk that finds them, for every pair
// the 7-relation chord search remembered and for every node it priced.
// Every relation exports id and fk, so a join's inputs hold several scans
// with the same bare name (C0.id, C3.id): the answer must be the first
// scan in walk order, as the walk finds it.
func TestSearchRemembersAttrStats(t *testing.T) {
	opt, qb, view := chordSearch(t)
	if _, err := opt.Optimize(qb); err != nil {
		t.Fatal(err)
	}
	msg, remembered := view.table.AttrStatsMismatch(view.CatalogView, []string{"id", "fk", "ID", "nosuch"})
	if msg != "" {
		t.Fatal(msg)
	}
	if remembered == 0 {
		t.Fatal("the search remembered no attribute statistics")
	}
}

// TestJoinselOncePerContext gives the object wrapper a second equi-join
// rule beside its own, whose two formulas both call joinsel(), and checks
// that a search computes joinsel() at most once per join it prices.
func TestJoinselOncePerContext(t *testing.T) {
	opt, qb, view := chordSearch(t)
	file, err := costlang.Parse(`
join(C1, C2, A1 = A2) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  TotalTime   = C1.TotalTime + C2.TotalTime + C1.CountObject * C2.CountObject * joinsel();
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Est.Registry.IntegrateWrapper("obj1", file, view.CatalogView); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Optimize(qb); err != nil {
		t.Fatal(err)
	}
	joins, calls := view.table.PricedJoins(), view.table.Joinsels()
	if calls == 0 || calls > joins {
		t.Errorf("joinsel() computed %d times for %d priced joins", calls, joins)
	}
}
