package optimizer

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"disco/internal/core"
)

// blockNames returns the golden blocks' names in a fixed order.
func blockNames(blocks map[string]*QueryBlock) []string {
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// samePlanCost reports the first difference between two plan costs: the
// nodes they cover and every variable's bits.
func samePlanCost(got, want *core.PlanCost) error {
	if len(got.ByNode) != len(want.ByNode) {
		return fmt.Errorf("%d nodes costed, want %d", len(got.ByNode), len(want.ByNode))
	}
	for n, w := range want.ByNode {
		g, ok := got.ByNode[n]
		if !ok {
			return fmt.Errorf("no cost for %s", n.Signature())
		}
		if len(g.Vars) != len(w.Vars) {
			return fmt.Errorf("%s: variables %v, want %v", n.Signature(), g.Vars, w.Vars)
		}
		for v, x := range w.Vars {
			if y, ok := g.Vars[v]; !ok || math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("%s: %s = %v, want %v", n.Signature(), v, y, x)
			}
		}
	}
	for n, c := range want.ByNode {
		if c == want.Root && got.Root != got.ByNode[n] {
			return fmt.Errorf("root cost is not the entry of the plan root %s", n.Signature())
		}
	}
	return nil
}

// TestFinalCostFromTable: the chosen plan's costs, which Optimize reads
// from the search's table, equal a full estimate of the plan outside any
// search, node for node and bit for bit, for every golden block, the
// greedy fallback, and required-variable pruning off, on, and on with a full per-node capture — asking the root for two
// variables or for all of them. With Trace on, every costed node still
// names the rule behind each variable.
func TestFinalCostFromTable(t *testing.T) {
	f := buildFixture(t)
	blocks := equivalenceBlocks()
	modes := []struct {
		name     string
		required bool
		rootVars []string
		capture  bool
	}{
		{name: "full"},
		{name: "required", required: true, rootVars: []string{"TimeFirst", "TotalTime"}},
		{name: "required+capture", required: true, rootVars: []string{"TimeFirst", "TotalTime"}, capture: true},
		{name: "required-all+capture", required: true, capture: true},
	}
	for _, name := range blockNames(blocks) {
		qb := blocks[name]
		for _, maxDP := range []int{10, 2} {
			if maxDP == 2 && len(qb.Relations) <= 2 {
				continue
			}
			for _, mode := range modes {
				label := fmt.Sprintf("%s maxdp=%d %s", name, maxDP, mode.name)
				est := f.est.Clone()
				est.Options.RequiredVarsOnly, est.Options.RootVars = mode.required, mode.rootVars
				opts := Options{MaxDPRelations: maxDP, CapturePlanCosts: mode.capture}
				res, err := New(f.cat, est, opts).Optimize(qb)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fresh := est.Clone()
				if opts.CapturePlanCosts {
					fresh.Options.RequiredVarsOnly, fresh.Options.RootVars = false, nil
				}
				want, err := fresh.Estimate(res.Plan)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := samePlanCost(res.Cost, want); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}

	est := f.est.Clone()
	est.Options.Trace = true
	res, err := New(f.cat, est, DefaultOptions()).Optimize(blocks["four-way"])
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range res.Cost.ByNode {
		for v := range c.Vars {
			if c.ChosenRules[v] == "" {
				t.Errorf("traced plan: no rule named for %s of %s", v, n.Signature())
			}
		}
	}
}

// TestPooledScratchCarriesNothing runs searches over two federations with
// different statistics — alternately on each goroutine, and on several
// goroutines at once — so estimators keep taking arenas the other
// federation's searches returned to the pool. Every search must choose
// the plan, cost and candidate count that federation's first search did.
func TestPooledScratchCarriesNothing(t *testing.T) {
	fixtures := []*fixture{buildFixtureOf(t, 5000), buildFixtureOf(t, 40)}
	blocks := equivalenceBlocks()
	names := blockNames(blocks)
	type outcome struct {
		plan   string
		cost   uint64
		costed int
	}
	run := func(f *fixture, qb *QueryBlock) (outcome, error) {
		res, err := New(f.cat, f.est.Clone(), DefaultOptions()).Optimize(qb)
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Plan.Signature(), math.Float64bits(res.Cost.TotalTime()), res.PlansCosted}, nil
	}
	want := make(map[string]outcome)
	for fi, f := range fixtures {
		for _, name := range names {
			o, err := run(f, blocks[name])
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(fi, name)] = o
		}
	}
	if want[fmt.Sprint(0, "four-way")] == want[fmt.Sprint(1, "four-way")] {
		t.Fatal("the two federations choose the same four-way plan at the same cost; the test cannot see a leak")
	}
	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, name := range names {
					for k := range fixtures {
						fi := (g + r + k) % len(fixtures)
						got, err := run(fixtures[fi], blocks[name])
						if err != nil {
							t.Error(err)
							return
						}
						if w := want[fmt.Sprint(fi, name)]; got != w {
							t.Errorf("federation %d %s: %+v, first search %+v", fi, name, got, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOptimizeAllocs is the search's allocation gate: after warm-up, a
// search on a fresh clone of the estimator (as every prepare runs one)
// allocates what its candidates are made of — the join node with its
// children, and a connecting predicate of several conjuncts (one
// conjunct's is shared by its edge) — and nothing per node priced: the
// arena, its tables, its node ids and its statistics come warm from the
// pool, and so do the candidate chunks and the subset table. The fixed
// part is the search's setup (access paths, edges), the chosen plan's
// schemas and the PlanCost maps, three objects per plan node. Measured:
// four-way 86 objects for 17 candidates, join8 504 for 247, a slope of
// 1.8 per candidate; a clone that grows its own arena allocates hundreds
// more.
func TestOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := buildFixture(t)
	for _, name := range []string{"four-way", "join8"} {
		qb := equivalenceBlocks()[name]
		var costed int
		optimize := func() {
			res, err := New(f.cat, f.est.Clone(), DefaultOptions()).Optimize(qb)
			if err != nil {
				t.Fatal(err)
			}
			costed = res.PlansCosted
		}
		optimize()
		allocs := testing.AllocsPerRun(50, optimize)
		const perCandidate, fixed = 2, 60
		if ceiling := float64(perCandidate*costed + fixed); allocs > ceiling {
			t.Errorf("%s: Optimize on a fresh clone allocates %.0f objects for %d candidates, ceiling %.0f", name, allocs, costed, ceiling)
		}
	}
}
