package optimizer

import (
	"errors"
	"strings"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/types"
)

// sameFieldOrder reports whether two resolved schemas carry the same
// columns in the same positions.
func sameFieldOrder(a, b *types.Schema) bool {
	if a == nil || b == nil || a.Len() != b.Len() {
		return a == b
	}
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if !strings.EqualFold(fa.Collection, fb.Collection) || !strings.EqualFold(fa.Name, fb.Name) {
			return false
		}
	}
	return true
}

// SuffixResult is the outcome of a mid-flight re-optimization: the best
// remaining plan found, the TotalTime of that plan and of the
// current remainder (both priced with the pins installed, so the two are
// directly comparable), and a full per-node variable capture of Plan for
// the executor's later divergence checks. When re-enumeration finds
// nothing structurally different (or the remainder has no reorderable
// join), Plan is the input plan itself and NewCost equals OldCost.
type SuffixResult struct {
	Plan    *algebra.Node
	NewCost float64
	OldCost float64
	// Cost carries the full-variable estimation of Plan (nil when the
	// plan is returned unchanged).
	Cost *core.PlanCost
}

// ReoptimizeSuffix re-enumerates the un-executed remainder of a running
// plan. Every node in pins is already materialized by the executor: its
// subtree is treated as an atomic leaf whose statistics are the recorded
// actuals and whose re-read costs nothing. The remaining join tree is
// decomposed into leaf units — pinned subtrees, submit subtrees, and
// whatever other non-join subtrees feed the joins — and re-joined by the
// same dynamic program and candidate pricing the initial search uses, now
// against facts instead of estimates. The post-join shape
// (aggregate/project/distinct/sort spine) is rebuilt on top of the
// winning join order.
//
// The optimizer's estimator is mutated (pins installed, full-variable
// capture toggled, a search recorded): callers must pass a private clone,
// as every prepare does. The result cache view is ignored for the suffix search — a pinned submit is priced by its
// pins, which are at least as exact as any cache entry.
func (o *Optimizer) ReoptimizeSuffix(plan *algebra.Node, pins map[*algebra.Node]core.PinnedVars) (*SuffixResult, error) {
	ro := *o
	ro.Opt.CacheView = nil
	for n, pv := range pins {
		ro.Est.Pin(n, pv)
	}
	s := &search{o: &ro}
	ro.Est.BeginSearch()
	defer ro.Est.EndSearch()

	unchanged := func() (*SuffixResult, error) {
		rc, err := s.costRoot(plan)
		if err != nil {
			return nil, err
		}
		c := rc.TotalTime()
		return &SuffixResult{Plan: plan, NewCost: c, OldCost: c}, nil
	}

	// Peel the post-join spine: the unary shape operators finalize()
	// attached above the join tree. A pinned node stops the peel — its
	// subtree is done, nothing below it can be reordered.
	var spine []*algebra.Node
	trunk := plan
peel:
	for {
		if _, ok := pins[trunk]; ok {
			break
		}
		switch trunk.Kind {
		case algebra.OpProject, algebra.OpSort, algebra.OpDupElim, algebra.OpAggregate, algebra.OpSelect:
			spine = append(spine, trunk)
			trunk = trunk.Children[0]
		default:
			break peel
		}
	}
	if trunk.Kind != algebra.OpJoin {
		return unchanged()
	}

	// Decompose the join tree into leaf units and collect the join
	// conjuncts of the joins being dissolved. Pinned subtrees are atomic
	// even when join-rooted; their internal predicates are already
	// applied facts, not reorderable edges.
	var units []*algebra.Node
	var conjs []algebra.Comparison
	var decompose func(n *algebra.Node)
	decompose = func(n *algebra.Node) {
		if _, ok := pins[n]; ok {
			units = append(units, n)
			return
		}
		if n.Kind != algebra.OpJoin {
			units = append(units, n)
			return
		}
		if n.Pred != nil {
			for _, c := range n.Pred.Conjuncts {
				conjs = append(conjs, c.Clone())
			}
		}
		decompose(n.Children[0])
		decompose(n.Children[1])
	}
	decompose(trunk)

	n := len(units)
	maxDP := ro.Opt.MaxDPRelations
	if maxDP <= 0 {
		maxDP = 10
	}
	if n < 2 || n > maxDP || n > 63 {
		return unchanged()
	}

	// Map every conjunct to the pair of units it connects, by the base
	// collections each unit's subtree scans. Conjuncts internal to one
	// unit (both relations inside a pinned join) are already applied.
	unitColls := make([]map[string]bool, n)
	for i, u := range units {
		m := make(map[string]bool)
		for _, sc := range u.Scans() {
			m[strings.ToLower(sc.Collection)] = true
		}
		unitColls[i] = m
	}
	unitOf := func(r algebra.Ref) int {
		for i, m := range unitColls {
			if m[strings.ToLower(r.Collection)] {
				return i
			}
		}
		return -1
	}
	for _, c := range conjs {
		if c.RightAttr == nil {
			continue
		}
		li, ri := unitOf(c.Left), unitOf(*c.RightAttr)
		if li < 0 || ri < 0 || li == ri {
			continue
		}
		s.edges = append(s.edges, edge{c: c, lb: 1 << uint(li), rb: 1 << uint(ri)})
	}

	// The dynamic program over leaf units instead of base relations, on
	// this call's one private estimator. Units are mediator-side (site
	// "") — pinned subtrees and shipped submits alike — so joinCandidates yields mediator joins;
	// both build orders are enumerated because pinned inputs make the
	// sides genuinely asymmetric (a pinned build side costs nothing to
	// re-read). Candidates share the unit subtrees rather than cloning
	// them, keeping the executor's materialization map and the
	// estimator's pins — both keyed by node pointer — valid across the
	// switch.
	tunits := make([]*tagged, n)
	for i, u := range units {
		tunits[i] = &tagged{plan: u, site: ""}
	}
	winner, err := s.joinDP(tunits, func(best map[uint64]*entry, set uint64, size int) []*tagged {
		var cands []*tagged
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if set&bit == 0 {
				continue
			}
			left, ok := best[set&^bit]
			if !ok {
				continue
			}
			pred := s.connectingPred(set&^bit, bit)
			if pred == nil && size < n {
				continue
			}
			cands = append(cands, ro.joinCandidates(left.t, tunits[i], pred)...)
			cands = append(cands, ro.joinCandidates(tunits[i], left.t, flipPred(pred))...)
		}
		return cands
	})
	if errors.Is(err, errNoJoinOrder) {
		return unchanged()
	}
	if err != nil {
		return nil, err
	}

	// Rebuild the peeled shape over the winning join tree, innermost
	// spine operator first.
	rebuilt := winner.plan
	for i := len(spine) - 1; i >= 0; i-- {
		sp := spine[i]
		switch sp.Kind {
		case algebra.OpSelect:
			rebuilt = algebra.Select(rebuilt, sp.Pred.Clone())
		case algebra.OpProject:
			rebuilt = algebra.Project(rebuilt, sp.Cols...)
		case algebra.OpSort:
			rebuilt = algebra.Sort(rebuilt, sp.Keys...)
		case algebra.OpDupElim:
			rebuilt = algebra.DupElim(rebuilt)
		case algebra.OpAggregate:
			rebuilt = algebra.Aggregate(rebuilt, sp.GroupBy, sp.Aggs)
		}
	}
	// A reordered join tree permutes the concatenated output columns;
	// when no projection in the spine re-fixes the order, restore the
	// original column order explicitly so a switched plan returns exactly
	// the rows the submitted plan would have.
	if err := algebra.Resolve(rebuilt, ro.Cat); err != nil {
		return nil, err
	}
	if !sameFieldOrder(rebuilt.OutSchema, plan.OutSchema) {
		cols := make([]string, 0, plan.OutSchema.Len())
		for i := 0; i < plan.OutSchema.Len(); i++ {
			f := plan.OutSchema.Field(i)
			cols = append(cols, f.Collection+"."+f.Name)
		}
		rebuilt = algebra.Project(rebuilt, cols...)
	}
	if rebuilt.StructuralHash() == plan.StructuralHash() {
		return unchanged()
	}

	// Price both complete remainders — spine included — on the pinned
	// estimator so the executor's hysteresis compares like with like.
	oldRC, err := s.costRoot(plan)
	if err != nil {
		return nil, err
	}
	// Full-variable pass on the winner: the executor keys its next
	// divergence checks on this capture, so it needs cardinalities at
	// every node, not just TotalTime at the root. Pinned nodes
	// predict their own actuals (q-error 1) and can never re-trigger.
	savedRequired := ro.Est.Options.RequiredVarsOnly
	savedRoot := ro.Est.Options.RootVars
	ro.Est.Options.RequiredVarsOnly = false
	ro.Est.Options.RootVars = nil
	pc, err := s.costPlan(rebuilt)
	ro.Est.Options.RequiredVarsOnly = savedRequired
	ro.Est.Options.RootVars = savedRoot
	if err != nil {
		return nil, err
	}
	return &SuffixResult{
		Plan:    rebuilt,
		NewCost: pc.TotalTime(),
		OldCost: oldRC.TotalTime(),
		Cost:    pc,
	}, nil
}
