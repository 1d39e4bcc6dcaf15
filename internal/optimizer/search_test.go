package optimizer

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/history"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

var update = flag.Bool("update", false, "rewrite the .golden files under testdata")

// join8Sizes are the extents of the fixture's R0..R7, the first eight of
// the benchmark's wide-join relations.
var join8Sizes = []int{100, 50, 80, 45, 60, 70, 45, 90}

// equivalenceBlocks returns the query blocks the search's golden plans are
// taken over: a selective two-way join, a co-located pair, a three-way
// join with aggregation shape, a four-way join spanning all three
// wrappers, and join8, an eight-relation chain with two chords and one
// range filter, the shape of the benchmark's widest ad-hoc joins.
func equivalenceBlocks() map[string]*QueryBlock {
	eqJoin := func(lc, la, rc, ra string) algebra.Comparison {
		r := algebra.Ref{Collection: rc, Attr: ra}
		return algebra.Comparison{Left: algebra.Ref{Collection: lc, Attr: la}, Op: stats.CmpEQ, RightAttr: &r}
	}
	join8 := &QueryBlock{}
	wrappers := []string{"obj1", "rel1", "files"}
	for i := range join8Sizes {
		join8.Relations = append(join8.Relations, Rel{Wrapper: wrappers[i%3], Collection: fmt.Sprintf("R%d", i)})
	}
	join8.Relations[2].Pred = algebra.NewSelPred(algebra.Ref{Collection: "R2", Attr: "id2"}, stats.CmpLT, types.Int(20))
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 3}, {2, 6}} {
		join8.JoinPreds = append(join8.JoinPreds, eqJoin(fmt.Sprintf("R%d", e[0]), fmt.Sprintf("fk%d", e[0]),
			fmt.Sprintf("R%d", e[1]), fmt.Sprintf("id%d", e[1])))
	}
	join8.Projection = []string{"R0.id0", "R7.fk7"}
	return map[string]*QueryBlock{
		"join8": join8,
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

// TestSearchGolden pins the plan and cost the search chooses for every
// query block, and those of the greedy fallback
// (MaxDPRelations below the relation count) on the blocks it applies to.
// Run with -update to rewrite testdata/search.golden after a deliberate
// change to the cost model or the search.
func TestSearchGolden(t *testing.T) {
	f := buildFixture(t)
	blocks := equivalenceBlocks()
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		qb := blocks[name]
		for _, maxDP := range []int{10, 2} {
			if maxDP == 2 && len(qb.Relations) <= 2 {
				continue // the dynamic program covers the block
			}
			f.opt.Opt = Options{MaxDPRelations: maxDP}
			res, err := f.opt.Optimize(qb)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&b, "%s maxdp=%d cost=%s plan=%s\n", name, maxDP,
				strconv.FormatFloat(res.Cost.TotalTime(), 'g', -1, 64), res.Plan.Signature())
		}
	}
	path := filepath.Join("testdata", "search.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("search drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

// scanOnly strips a wrapper's capabilities: selections over it stay at
// the mediator, above the submit.
type scanOnly struct{ wrapper.Wrapper }

func (scanOnly) Capabilities() wrapper.Capabilities { return wrapper.Capabilities{} }

// lateRuleNet is the fixture's network model with a side effect: the
// first latency it is asked for on obj1 after one on the scan-only wrapper
// has the history recorder publish a query-scope rule for that wrapper —
// what an execution finishing on another goroutine does to a search in
// flight.
type lateRuleNet struct {
	core.NetProvider
	rec       *history.Recorder
	t         *testing.T
	sawRaw    bool
	published bool
}

func (n *lateRuleNet) LatencyMS(w string) float64 {
	switch {
	case w == "raw":
		n.sawRaw = true
	case w == "obj1" && n.sawRaw && !n.published:
		n.published = true
		if err := n.rec.Record(algebra.Submit(algebra.Project(algebra.Scan("raw", "Docs"), "did"), "raw"), 5, 7, 70); err != nil {
			n.t.Error(err)
		}
	}
	return n.NetProvider.LatencyMS(w)
}

// TestRulePublishedMidSearch publishes a history rule while a search is
// pricing candidates. The scan-only wrapper's base plan is a mediator
// select over its submit, and no exact rule exists when it is priced.
// Base relations are priced first, the scan-only one last; the next
// obj1 submit priced is the co-located Employee-Manager candidate of
// level 2, and pricing it publishes the rule while the level is being
// priced. The submit was priced before the rule existed, so the search
// keeps that estimate for it: the rule reaches only nodes priced after
// it, and every search on a fresh fixture chooses the same plan after
// the same number of estimations.
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
	for round := 0; round < 3; round++ {
		f := buildFixture(t)
		if err := f.cat.Register(scanOnly{wrapper.NewFileWrapper("raw", f.fstore)}); err != nil {
			t.Fatal(err)
		}
		net := &lateRuleNet{NetProvider: f.est.Net, rec: history.NewRecorder(f.reg), t: t}
		f.est.Net = net
		got, err := f.opt.Optimize(qb)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !net.published {
			t.Fatalf("round %d: the search never priced an obj1 submit after the scan-only one", round)
		}
		if want == nil {
			want = got
			continue
		}
		if !got.Plan.Equal(want.Plan) || got.Cost.TotalTime() != want.Cost.TotalTime() || got.PlansCosted != want.PlansCosted {
			t.Fatalf("round %d: plan %s cost %v costed %d, want %s cost %v costed %d", round,
				got.Plan.Signature(), got.Cost.TotalTime(), got.PlansCosted,
				want.Plan.Signature(), want.Cost.TotalTime(), want.PlansCosted)
		}
	}
}

// TestBoundComparesCompleteCosts is the regression for branch-and-bound
// pruning a candidate cheaper than the bound. Employee and Manager live in
// one join-capable wrapper, so their subset has four candidates: a
// mediator join and a source-side join in each build order. History has
// observed Employee's submit at 100 ms (its scan alone models at 2100 ms)
// and the source-side Employee-Manager join at 200 ms. The first mediator
// join then costs about 668 ms, a bound between the two observations and
// the scan; the last candidate, the observed source-side join, costs 200
// ms, but the scan under its submit models above the bound. The search
// must return the cheapest candidate as each prices without a bound.
func TestBoundComparesCompleteCosts(t *testing.T) {
	f := buildFixture(t)
	mdept := algebra.Ref{Collection: "Manager", Attr: "mdept"}
	qb := &QueryBlock{
		Relations: []Rel{{Wrapper: "obj1", Collection: "Employee"}, {Wrapper: "obj1", Collection: "Manager"}},
		JoinPreds: []algebra.Comparison{{Left: algebra.Ref{Collection: "Employee", Attr: "dept"}, Op: stats.CmpEQ, RightAttr: &mdept}},
	}
	emp, err := f.opt.accessPath(qb.Relations[0])
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := f.opt.accessPath(qb.Relations[1])
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(f.opt, qb)
	pred, _ := s.connectingPred(1, 2)
	// Left-deep enumeration order of the subset {Employee, Manager}.
	cands := s.joinCandidates(s.joinCandidates(nil, mgr, emp, pred, false), emp, mgr, pred, false)
	rec := history.NewRecorder(f.reg)
	if err := rec.Record(emp.materialize(), 100, 5000, 5000*40); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(cands[3].materialize(), 200, 5000, 5000*40); err != nil {
		t.Fatal(err)
	}

	best, bestCost := (*algebra.Node)(nil), math.Inf(1)
	for _, c := range cands {
		plan := c.materialize()
		if err := algebra.Resolve(plan, f.cat); err != nil {
			t.Fatal(err)
		}
		est := f.est.Clone()
		est.Reset()
		rc, err := est.EstimateRoot(plan)
		if err != nil {
			t.Fatal(err)
		}
		if rc.TotalTime() < bestCost {
			best, bestCost = plan, rc.TotalTime()
		}
	}
	res, err := f.opt.Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Equal(best) || res.Cost.TotalTime() != bestCost {
		t.Errorf("chose %s at %v, want the cheapest candidate %s at %v",
			res.Plan.Signature(), res.Cost.TotalTime(), best.Signature(), bestCost)
	}
}
