// Package optimizer implements the mediator's cost-based query optimizer
// (paper §2.2): it enumerates access paths, join orders and submit
// placements for a query block, estimates every candidate with the
// blending cost model (internal/core), and returns the cheapest plan.
// Join ordering uses dynamic programming over relation subsets producing
// left-deep trees ranked by TotalTime, in one sequential loop that prices
// each plan node once per search; subplans are pushed into wrappers whenever
// capabilities allow, and co-located joins may execute at the source.
package optimizer

import (
	"fmt"
	"math"
	"strings"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
)

// Rel is one base relation of a query block with its single-relation
// selection predicate.
type Rel struct {
	Wrapper    string
	Collection string
	// Pred holds the conjuncts referencing only this relation; may be
	// nil.
	Pred *algebra.Predicate
}

// QueryBlock is the normalized input to optimization: relations, join
// predicates connecting them, and the post-join shape.
type QueryBlock struct {
	Relations []Rel
	JoinPreds []algebra.Comparison // attribute-to-attribute conjuncts
	// Post-join operators, applied in SQL order: group/aggregate, then
	// distinct, then sort, then projection.
	GroupBy    []algebra.Ref
	Aggs       []algebra.AggSpec
	Distinct   bool
	Sort       []algebra.SortKey
	Projection []string // empty keeps all columns
}

// Options tune the search.
type Options struct {
	// MaxDPRelations bounds the dynamic program; blocks with more
	// relations use a greedy fallback.
	MaxDPRelations int
	// CapturePlanCosts guarantees the returned Result.Cost carries a
	// complete per-node variable capture for the chosen plan: the final
	// estimation runs with every result variable enabled even when the
	// estimator's RequiredVarsOnly/RootVars options restrict candidate
	// pricing to the root's TotalTime. The execution-feedback recorder joins
	// these predictions against observed actuals, so it needs estimated
	// cardinalities and times at every node, not just the root.
	CapturePlanCosts bool
}

// DefaultOptions searches left-deep trees by dynamic programming up to 10
// relations.
func DefaultOptions() Options { return Options{MaxDPRelations: 10} }

// Result carries the chosen plan and search metrics.
type Result struct {
	Plan *algebra.Node
	Cost *core.PlanCost
	// PlansCosted counts candidate estimations, the final one included.
	PlansCosted int
}

// Optimizer searches plans for query blocks.
type Optimizer struct {
	Cat *catalog.Catalog
	Est *core.Estimator
	Opt Options
}

// New builds an optimizer over a catalog and estimator.
func New(cat *catalog.Catalog, est *core.Estimator, opt Options) *Optimizer {
	return &Optimizer{Cat: cat, Est: est, Opt: opt}
}

// Optimize picks the cheapest plan for the query block. The returned plan
// is resolved and ready for execution. The chosen plan depends only on
// the query and the cost model (see joinDP for the argument). The search
// runs on the optimizer's estimator, which records every node it prices
// until Optimize returns (core.Estimator.BeginSearch).
func (o *Optimizer) Optimize(qb *QueryBlock) (*Result, error) {
	if len(qb.Relations) == 0 {
		return nil, fmt.Errorf("optimizer: query block has no relations")
	}
	if len(qb.Relations) > 63 {
		return nil, fmt.Errorf("optimizer: too many relations (%d)", len(qb.Relations))
	}
	s := newSearch(o, qb)
	defer s.release()
	o.Est.BeginSearch()
	defer o.Est.EndSearch()

	// Access paths: one pushed-down subplan per relation.
	base := make([]*tagged, len(qb.Relations))
	for i, rel := range qb.Relations {
		plan, err := o.accessPath(rel)
		if err != nil {
			return nil, err
		}
		if err := algebra.Resolve(plan.materialize(), o.Cat); err != nil {
			return nil, err
		}
		base[i] = plan
	}
	s.allChecked = true
	for i := range s.edges {
		s.edges[i].check(base)
		s.allChecked = s.allChecked && s.edges[i].ok
	}

	var joined *tagged
	var err error
	switch {
	case len(base) == 1:
		joined = base[0]
	case len(qb.Relations) <= o.Opt.MaxDPRelations:
		joined, err = s.joinDP(base, func(best []entry, set uint64, size int) []*tagged {
			return s.subsetCandidates(base, best, set, size)
		})
	default:
		joined, err = s.greedyJoin(base)
	}
	if err != nil {
		return nil, err
	}

	plan, err := o.finalize(qb, joined)
	if err != nil {
		return nil, err
	}
	if o.Opt.CapturePlanCosts {
		// Full-variable final pass: lift the phase-1 restrictions for the
		// one estimation whose per-node breakdown callers consume.
		savedRequired := o.Est.Options.RequiredVarsOnly
		savedRoot := o.Est.Options.RootVars
		o.Est.Options.RequiredVarsOnly = false
		o.Est.Options.RootVars = nil
		defer func() {
			o.Est.Options.RequiredVarsOnly = savedRequired
			o.Est.Options.RootVars = savedRoot
		}()
	}
	cost, err := s.costPlan(plan)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Cost: cost, PlansCosted: s.plansCosted}, nil
}

// tagged is a candidate subplan with its execution site: site != "" means
// the whole subtree still runs inside that wrapper (no submit placed yet).
type tagged struct {
	plan *algebra.Node
	site string
	// checked reports that a join candidate's predicate resolves in its
	// inputs (see edge.check).
	checked bool
	// mat caches the materialized form so every candidate built over this
	// subplan shares one submit node (and its cached structural hash and
	// the search's record of its estimate).
	// Estimation never mutates a node, so sharing is safe.
	mat *algebra.Node
}

// materialize wraps a wrapper-resident subplan in its submit, yielding a
// mediator-side plan.
func (t *tagged) materialize() *algebra.Node {
	if t.site == "" {
		return t.plan
	}
	if t.mat == nil {
		t.mat = algebra.Submit(t.plan, t.site)
	}
	return t.mat
}

// accessPath builds the pushed-down subplan of one relation: a cascade of
// single-conjunct selects over the scan, inside the wrapper when its
// capabilities allow filtering, at the mediator otherwise.
func (o *Optimizer) accessPath(rel Rel) (*tagged, error) {
	if !o.Cat.HasCollection(rel.Wrapper, rel.Collection) {
		return nil, fmt.Errorf("optimizer: unknown collection %s@%s", rel.Collection, rel.Wrapper)
	}
	caps, _ := o.Cat.Capabilities(rel.Wrapper)
	plan := algebra.Scan(rel.Wrapper, rel.Collection)
	site := rel.Wrapper
	if rel.Pred != nil && len(rel.Pred.Conjuncts) > 0 {
		if caps.Select {
			// Cascade conjuncts so predicate-scope rules can match each
			// comparison individually.
			for _, cmp := range rel.Pred.Conjuncts {
				plan = algebra.Select(plan, &algebra.Predicate{Conjuncts: []algebra.Comparison{cmp.Clone()}})
			}
		} else {
			// The wrapper cannot filter: ship everything, filter at the
			// mediator.
			node := algebra.Submit(plan, rel.Wrapper)
			var out *algebra.Node = node
			for _, cmp := range rel.Pred.Conjuncts {
				out = algebra.Select(out, &algebra.Predicate{Conjuncts: []algebra.Comparison{cmp.Clone()}})
			}
			return &tagged{plan: out, site: ""}, nil
		}
	}
	return &tagged{plan: plan, site: site}, nil
}

// entry is one memoized dynamic-program solution: the cheapest subplan
// covering a relation subset and its TotalTime.
type entry struct {
	t    *tagged
	cost float64
}

// subsetCandidates enumerates every join candidate of one relation subset
// in the canonical deterministic order — left-deep splits (the subset
// minus one relation, that relation), each expanded through
// joinCandidates. Ties on cost are broken towards the earlier candidate.
// The returned slice is the search's buffer, valid until the next call.
func (s *search) subsetCandidates(base []*tagged, best []entry, set uint64, size int) []*tagged {
	n := len(base)
	out := s.cands[:0]
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if set&bit == 0 {
			continue
		}
		left := best[set&^bit].t
		if left == nil || size < n && s.adj[i]&(set&^bit) == 0 {
			continue
		}
		pred, checked := s.connectingPred(set&^bit, bit)
		if pred == nil && size < n {
			continue
		}
		out = s.joinCandidates(out, left, base[i], pred, checked)
	}
	s.cands = out
	return out
}

// greedyJoin joins the cheapest pair first, repeatedly — the fallback for
// very large blocks. It reprices the surviving pairs every round; each
// repriced pair costs only its new join node, because its inputs are
// already priced in this search.
func (s *search) greedyJoin(base []*tagged) (*tagged, error) {
	type item struct {
		t    *tagged
		set  uint64
		cost float64
	}
	items := make([]*item, len(base))
	for i, b := range base {
		c, err := s.costTagged(b)
		if err != nil {
			return nil, err
		}
		items[i] = &item{t: b, set: 1 << uint(i), cost: c}
	}
	for len(items) > 1 {
		var bi, bj int
		var bt *tagged
		bc := math.Inf(1)
		for i := 0; i < len(items); i++ {
			for j := 0; j < len(items); j++ {
				if i == j {
					continue
				}
				pred, checked := s.connectingPred(items[i].set, items[j].set)
				if pred == nil && len(items) > 2 {
					continue
				}
				s.cands = s.joinCandidates(s.cands[:0], items[i].t, items[j].t, pred, checked)
				for _, cand := range s.cands {
					c, err := s.costTagged(cand)
					if err != nil {
						return nil, err
					}
					if c < bc {
						bi, bj, bt, bc = i, j, cand, c
					}
				}
			}
		}
		if bt == nil {
			return nil, fmt.Errorf("optimizer: no joinable pair found")
		}
		if err := s.keep(bt); err != nil {
			return nil, err
		}
		merged := &item{t: bt, set: items[bi].set | items[bj].set, cost: bc}
		var next []*item
		for k, it := range items {
			if k != bi && k != bj {
				next = append(next, it)
			}
		}
		items = append(next, merged)
	}
	return items[0].t, nil
}

// joinCandidates appends the placement alternatives for joining two
// subplans: a mediator join of the shipped inputs and, when both sides
// are resident at the same join-capable wrapper, a source-side join. Both
// share pred: a plan node's predicate is never modified once built.
// checked reports that pred's conjuncts resolve in the inputs (see
// edge.check).
func (s *search) joinCandidates(out []*tagged, left, right *tagged, pred *algebra.Predicate, checked bool) []*tagged {
	// Candidates share the input subtrees rather than cloning them: nodes
	// are immutable during search (Resolve is idempotent, estimation only
	// reads), so the same resolved, hash-cached subplan can appear under
	// many candidate joins.
	med := algebra.Join(left.materialize(), right.materialize(), pred)
	out = append(out, s.newTagged(med, "", checked))
	if left.site != "" && left.site == right.site {
		if caps, ok := s.o.Cat.Capabilities(left.site); ok && caps.Join {
			out = append(out, s.newTagged(algebra.Join(left.plan, right.plan, pred), left.site, checked))
		}
	}
	return out
}

// joinEdges places each join conjunct of the block between the relations
// its two sides name; a conjunct naming no relation of the block joins
// nothing.
func joinEdges(qb *QueryBlock) []edge {
	edges := make([]edge, 0, len(qb.JoinPreds))
	for _, c := range qb.JoinPreds {
		li, ri := relIndexOf(qb, c.Left), relIndexOf(qb, *c.RightAttr)
		if li < 0 || ri < 0 {
			continue
		}
		edges = append(edges, edge{c: c, lb: 1 << uint(li), rb: 1 << uint(ri)})
	}
	return edges
}

// relIndexOf locates the relation a qualified attribute belongs to.
func relIndexOf(qb *QueryBlock, r algebra.Ref) int {
	for i, rel := range qb.Relations {
		if strings.EqualFold(rel.Collection, r.Collection) {
			return i
		}
	}
	return -1
}

// finalize applies the post-join shape and places the final submit.
// Single-wrapper plans are pushed entirely when capabilities allow.
func (o *Optimizer) finalize(qb *QueryBlock, t *tagged) (*algebra.Node, error) {
	plan := t.plan
	site := t.site
	caps, _ := o.Cat.Capabilities(site)
	pushable := func(k algebra.OpKind) bool { return site != "" && caps.Supports(k) }

	attach := func(k algebra.OpKind, mk func(*algebra.Node) *algebra.Node) {
		if !pushable(k) && site != "" {
			plan = algebra.Submit(plan, site)
			site = ""
		}
		plan = mk(plan)
	}
	if len(qb.GroupBy) > 0 || len(qb.Aggs) > 0 {
		attach(algebra.OpAggregate, func(p *algebra.Node) *algebra.Node {
			return algebra.Aggregate(p, qb.GroupBy, qb.Aggs)
		})
	}
	if len(qb.Projection) > 0 {
		attach(algebra.OpProject, func(p *algebra.Node) *algebra.Node {
			return algebra.Project(p, qb.Projection...)
		})
	}
	if qb.Distinct {
		attach(algebra.OpDupElim, algebra.DupElim)
	}
	if len(qb.Sort) > 0 {
		attach(algebra.OpSort, func(p *algebra.Node) *algebra.Node {
			return algebra.Sort(p, qb.Sort...)
		})
	}
	if site != "" {
		plan = algebra.Submit(plan, site)
	}
	return plan, nil
}

// costTagged estimates a candidate as it would run (submits placed),
// returning its TotalTime. Candidates are priced through the estimator's
// root-only fast path on the shared (uncloned) candidate tree; estimation
// does not mutate nodes, and re-resolution of already-resolved subtrees
// is a no-op.
func (s *search) costTagged(t *tagged) (float64, error) {
	plan := t.materialize()
	rc, err := s.costRoot(plan, t.checked)
	if err != nil {
		return 0, err
	}
	return rc.TotalTime(), nil
}

// costRoot checks and estimates one plan, returning only the root
// variables — the allocation-free candidate pricing path. A join
// candidate, shipped or not, gets no schema: it is not checked at all
// when its predicate is known to resolve (checked), and checked against
// its resolved inputs (algebra.CheckJoin) otherwise.
func (s *search) costRoot(plan *algebra.Node, checked bool) (core.RootCost, error) {
	join := plan
	if join.Kind == algebra.OpSubmit {
		join = join.Children[0]
	}
	var err error
	switch {
	case join.Kind != algebra.OpJoin || join.OutSchema != nil:
		err = algebra.Resolve(plan, s.o.Cat)
	case checked:
	case join.Children[0].OutSchema != nil && join.Children[1].OutSchema != nil:
		err = algebra.CheckJoin(join)
	default:
		err = algebra.Resolve(plan, s.o.Cat)
	}
	if err != nil {
		return core.RootCost{}, err
	}
	s.plansCosted++
	return s.o.Est.EstimateRoot(plan)
}

// keep resolves a candidate the search keeps as a subset's winner, and
// its submit, so that candidates built over it find their inputs
// resolved for algebra.CheckJoin. When every edge is checked, no
// candidate is: kept candidates stay unresolved, estimation reads their
// width from their inputs (algebra.Width), and costPlan resolves the
// chosen plan alone.
func (s *search) keep(t *tagged) error {
	if s.allChecked {
		return nil
	}
	return algebra.Resolve(t.materialize(), s.o.Cat)
}

// costPlan is costRoot with the full per-node cost breakdown, used once
// per Optimize call on the chosen plan; inside the search it reads the
// nodes the candidates priced.
func (s *search) costPlan(plan *algebra.Node) (*core.PlanCost, error) {
	if err := algebra.Resolve(plan, s.o.Cat); err != nil {
		return nil, err
	}
	s.plansCosted++
	return s.o.Est.Estimate(plan)
}

// SplitPredicate partitions a WHERE predicate into per-relation selection
// predicates and cross-relation join conjuncts; the SQL front end uses it
// to build query blocks. Unqualified attributes are resolved against the
// relations' schemas through the catalog.
func SplitPredicate(cat *catalog.Catalog, rels []Rel, pred *algebra.Predicate) ([]Rel, []algebra.Comparison, error) {
	out := make([]Rel, len(rels))
	copy(out, rels)
	var joins []algebra.Comparison
	if pred == nil {
		return out, joins, nil
	}
	owner := func(r algebra.Ref) (int, error) {
		if r.Collection != "" {
			for i, rel := range out {
				if strings.EqualFold(rel.Collection, r.Collection) {
					return i, nil
				}
			}
			return -1, fmt.Errorf("optimizer: attribute %s references no FROM relation", r)
		}
		found := -1
		for i, rel := range out {
			schema, err := cat.CollectionSchema(rel.Wrapper, rel.Collection)
			if err != nil {
				return -1, err
			}
			if _, ok := schema.Lookup(r.Attr); ok {
				if found >= 0 {
					return -1, fmt.Errorf("optimizer: attribute %s is ambiguous", r)
				}
				found = i
			}
		}
		if found < 0 {
			return -1, fmt.Errorf("optimizer: unknown attribute %s", r)
		}
		return found, nil
	}
	for _, c := range pred.Conjuncts {
		li, err := owner(c.Left)
		if err != nil {
			return nil, nil, err
		}
		cc := c.Clone()
		// Qualify for downstream matching.
		cc.Left.Collection = out[li].Collection
		if !c.IsJoin() {
			out[li].Pred = out[li].Pred.And(&algebra.Predicate{Conjuncts: []algebra.Comparison{cc}})
			continue
		}
		ri, err := owner(*c.RightAttr)
		if err != nil {
			return nil, nil, err
		}
		cc.RightAttr.Collection = out[ri].Collection
		if li == ri {
			out[li].Pred = out[li].Pred.And(&algebra.Predicate{Conjuncts: []algebra.Comparison{cc}})
		} else {
			joins = append(joins, cc)
		}
	}
	return out, joins, nil
}
