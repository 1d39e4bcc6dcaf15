package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/costvm"
	"disco/internal/stats"
	"disco/internal/types"
)

// The canonical result variables, in evaluation order. Size statistics are
// computed before times so that time formulas may reference them; TimeNext
// comes last so the generic model can derive it from TotalTime and
// TimeFirst. Formulas referencing a self variable that appears later in
// this order fail and fall back, which keeps evaluation well-founded.
var varOrder = []string{"CountObject", "ObjectSize", "TotalSize", "TimeFirst", "TotalTime", "TimeNext"}

// AllVars returns the canonical result variables in evaluation order.
func AllVars() []string { return append([]string(nil), varOrder...) }

// ErrOverBudget is returned when Options.Budget aborted an estimation
// because a node's TotalTime exceeded it (paper §4.3.2). The E6 ablation
// measures the abort on its deep plan.
var ErrOverBudget = errors.New("core: plan cost exceeds budget, estimation aborted")

// NetProvider supplies per-wrapper communication parameters for the
// submit operator's cost (paper assumes uniform communication costs; the
// netsim package provides non-uniform ones as an extension).
type NetProvider interface {
	// LatencyMS is the per-message overhead in milliseconds.
	LatencyMS(wrapper string) float64
	// PerByteMS is the transfer cost per byte in milliseconds.
	PerByteMS(wrapper string) float64
}

// UniformNet is the paper's uniform communication model.
type UniformNet struct {
	Latency float64
	PerByte float64
}

// LatencyMS implements NetProvider.
func (u UniformNet) LatencyMS(string) float64 { return u.Latency }

// PerByteMS implements NetProvider.
func (u UniformNet) PerByteMS(string) float64 { return u.PerByte }

// Options control the estimation algorithm's optional behaviours; the E6
// ablation toggles them.
type Options struct {
	// RequiredVarsOnly enables the paper's phase-1 optimization: only
	// formulas computing variables some ancestor consumes are selected,
	// and recursion into a child that owes nothing is cut (§4.2).
	RequiredVarsOnly bool
	// Budget, when positive, aborts estimation with ErrOverBudget as soon
	// as any node's TotalTime exceeds it (§4.3.2). The E6 ablation sets it
	// on a whole-plan Estimate. The plan search does not: a query-scope
	// rule can price a submit below the model's estimate of the subtree
	// under it, so a node dearer than the bound does not make its plan
	// dearer, and the search compares complete candidate costs instead.
	Budget float64
	// RootVars restricts which variables the caller needs at the plan
	// root (nil means all). Only meaningful with RequiredVarsOnly.
	RootVars []string
	// Trace records which rule supplied each variable, for Explain.
	Trace bool
}

// NodeCost is the estimate computed for one plan node.
type NodeCost struct {
	// Vars holds the computed result variables (milliseconds for times,
	// objects and bytes for sizes). Only required variables are present
	// when RequiredVarsOnly is set.
	Vars map[string]float64
	// ChosenRules maps variable -> description of the rule that supplied
	// it (only with Options.Trace).
	ChosenRules map[string]string
}

// Var returns a computed variable, or def when it was not computed.
func (n *NodeCost) Var(name string, def float64) float64 {
	if v, ok := n.Vars[name]; ok {
		return v
	}
	return def
}

// TotalTime returns the node's TotalTime estimate in milliseconds.
func (n *NodeCost) TotalTime() float64 { return n.Var("TotalTime", 0) }

// PlanCost is the result of estimating a whole plan.
type PlanCost struct {
	Root   *NodeCost
	ByNode map[*algebra.Node]*NodeCost
	// Metrics of the estimation run (the E6 ablation reports them).
	NodesVisited int
	FormulaEvals int
	RulesMatched int
}

// TotalTime returns the root TotalTime in milliseconds.
func (p *PlanCost) TotalTime() float64 { return p.Root.TotalTime() }

// RootCost is the root-only result of EstimateRoot: the plan's computed
// result variables without the per-node maps of PlanCost. The optimizer's
// candidate pricing loop needs nothing more, and building it allocates
// nothing.
type RootCost struct {
	vars [NumVars]float64
	set  VarSet
}

// TotalTime returns the root TotalTime estimate in milliseconds.
func (r RootCost) TotalTime() float64 {
	if r.set.Has(idxTotalTime) {
		return r.vars[idxTotalTime]
	}
	return 0
}

// Estimator evaluates plan costs against the integrated rule hierarchy.
// An Estimator is cheap to construct and safe for sequential reuse; use
// one per goroutine — Clone makes an independent per-goroutine copy over
// the same (read-only) registry, view and network model. Estimation runs
// in a scratch arena of node contexts, match results, the VM stack and a
// search's tables, which reaches a steady state after the first few plans,
// after which estimation allocates nothing. Arenas outlive estimators: an
// estimator takes one from a process-wide pool on first use and EndSearch
// hands it back, so a clone per prepare does not grow a fresh one.
type Estimator struct {
	Registry *Registry
	View     CatalogView
	Net      NetProvider
	Options  Options

	// globals are the mediator-level coefficients resolvable from any
	// formula (PageSize, the generic model's calibrated constants, ...).
	// Wrapper globals shadow them. NewEstimator sets them and nothing
	// writes them after; clones share them.
	globals map[string]types.Constant

	// scr is the estimator's scratch arena, taken from scratchPool on
	// first use so zero-value and literal-constructed estimators work.
	scr *scratch
	// folds is the fold state (fold.go), shared with clones.
	folds *foldSource
}

// NewEstimator builds an estimator with the generic-model default
// coefficients.
func NewEstimator(reg *Registry, view CatalogView, net NetProvider) *Estimator {
	if net == nil {
		net = UniformNet{Latency: 10, PerByte: 0.0005}
	}
	return &Estimator{
		Registry: reg,
		View:     view,
		Net:      net,
		globals:  DefaultCoefficients(),
		folds:    &foldSource{},
	}
}

// Clone returns an independent estimator for use on another goroutine.
// The registry, catalog view, network model and globals are shared — they
// are read-only during estimation — while Options are copied and the
// scratch arena is not: the clone takes a pooled arena on first use, so
// concurrent estimations never observe each other's state, and cloning
// copies only the estimator itself. Every prepare clones the mediator's
// template estimator.
func (e *Estimator) Clone() *Estimator {
	c := *e
	c.scr = nil
	c.Options.RootVars = append([]string(nil), e.Options.RootVars...)
	return &c
}

// Reset clears the pruning budget (Options.Budget) so a reused or pooled
// estimator starts its next estimation unbounded.
func (e *Estimator) Reset() { e.Options.Budget = 0 }

// scratch is the estimator's reusable working memory. Node contexts and
// match results are pooled behind stable pointers (used counters reset per
// estimation, the objects and their inner slice capacities survive), and
// one VM evaluation stack plus one eval environment are shared by every
// formula evaluation. Estimation metrics accumulate here and are copied
// into PlanCost at the end. Arenas are recycled through scratchPool;
// nothing in one is read before the estimation or search using it has
// reset it.
type scratch struct {
	ctxs    []*nodeCtx
	ctxUsed int

	matches   []*matchResult
	matchUsed int

	vmStack []types.Constant
	env     evalEnv
	// foldVersion is the version of the estimator's folds the running
	// search or estimation reads (see fold.go).
	foldVersion uint64

	// search is the running search's record (BeginSearch to EndSearch),
	// backed by tab; table is the record a walk reads (nil when it may
	// not), and descend makes the walk continue below the nodes the
	// record answers.
	search  *searchTable
	tab     searchTable
	table   *searchTable
	descend bool

	// ids numbers the plan nodes the search (or the one estimation
	// outside a search) has met, densely from 0; infos holds what is known
	// about each, by id: its site, its derived collection, its priced
	// entries and its remembered attribute statistics (see nodeInfo).
	// attrIDs numbers the attribute names statistics were asked for in
	// the same way, attrNames holding each; the statistics live once in
	// the attrVals slab.
	ids       map[*algebra.Node]int32
	infos     []nodeInfo
	attrIDs   map[string]int32
	attrNames []string
	attrVals  []stats.AttributeStats

	// dispatch caches the candidate rules per node shape (dispatch.go).
	dispatch dispatch

	nodesVisited int
	formulaEvals int
	rulesMatched int
}

// scratchPool recycles scratch arenas across estimators: a prepare's clone
// takes the arena an earlier prepare's EndSearch returned, with its grown
// pools and maps.
var scratchPool = sync.Pool{New: func() any {
	return &scratch{ids: make(map[*algebra.Node]int32), attrIDs: make(map[string]int32)}
}}

func (s *scratch) reset() {
	s.ctxUsed = 0
	s.matchUsed = 0
	s.nodesVisited = 0
	s.formulaEvals = 0
	s.rulesMatched = 0
	if s.search == nil {
		s.forgetNodes()
	}
}

// forgetNodes drops the node ids and everything known under them.
func (s *scratch) forgetNodes() {
	if len(s.ids) > 0 {
		clear(s.ids)
	}
	s.infos = s.infos[:0]
	if len(s.attrIDs) > 0 {
		clear(s.attrIDs)
	}
	clear(s.attrNames)
	s.attrNames = s.attrNames[:0]
	clear(s.attrVals)
	s.attrVals = s.attrVals[:0]
}

// nodeInfo is what the scratch knows about one plan node, under the
// node's id. Nodes are immutable, so none of it changes while the ids
// live.
type nodeInfo struct {
	node *algebra.Node
	kids [2]int32 // the children's ids
	// site is where the node executes when no submit above it names a
	// wrapper: a scan's or submit's own wrapper, otherwise the one site
	// all its inputs run at (none of them a submit), else the mediator.
	site string
	// derivedColl/-Wrapper identify the single base collection the node's
	// result derives from, when there is one (see nodeCtx).
	derivedColl    string
	derivedWrapper string
	// priced are the node's entries in the search's record, one per
	// (site, need) it was priced under; attrs are its statsUnder answers
	// by attribute id: an index into attrVals, attrAbsent when no scan
	// under the node exports the attribute, attrUnknown when not asked
	// yet (also past the end).
	priced []pricedEntry
	attrs  []int32
}

// The statsUnder answers that are not indexes.
const (
	attrAbsent  = -1
	attrUnknown = -2
)

// pricedEntry is one recorded estimate of a node.
type pricedEntry struct {
	site string
	need VarSet
	tableEntry
}

// idOf returns the node's id, numbering it (and, first, its subtree's
// unnumbered nodes) on first sight.
func (s *scratch) idOf(n *algebra.Node) int32 {
	if id, ok := s.ids[n]; ok {
		return id
	}
	var kids [2]int32
	for i, c := range n.Children {
		if i < len(kids) {
			kids[i] = s.idOf(c)
		}
	}
	id := int32(len(s.infos))
	if len(s.infos) < cap(s.infos) {
		s.infos = s.infos[:id+1]
	} else {
		s.infos = append(s.infos, nodeInfo{})
	}
	info := &s.infos[id]
	info.node, info.kids = n, kids
	info.site, info.derivedColl, info.derivedWrapper = "", "", ""
	info.priced = info.priced[:0]
	info.attrs = info.attrs[:0]
	switch n.Kind {
	case algebra.OpScan, algebra.OpSubmit:
		info.site = n.Wrapper
	default:
		// Site inference: an operator with no submit boundary above it
		// executes where its inputs live — if every child runs at the
		// same wrapper (and none is a submit, whose output is
		// mediator-side), the operator is co-located with them. Plans
		// produced by the optimizer carry explicit submits; inference
		// covers hand-built access paths.
		if len(n.Children) > 0 && len(n.Children) <= len(kids) {
			site := s.infos[kids[0]].site
			ok := site != ""
			for i, c := range n.Children {
				if c.Kind == algebra.OpSubmit || s.infos[kids[i]].site != site {
					ok = false
				}
			}
			if ok {
				info.site = site
			}
		}
	}
	switch n.Kind {
	case algebra.OpScan:
		info.derivedColl, info.derivedWrapper = n.Collection, n.Wrapper
	case algebra.OpSelect, algebra.OpProject, algebra.OpSort,
		algebra.OpDupElim, algebra.OpSubmit:
		c := &s.infos[kids[0]]
		info.derivedColl, info.derivedWrapper = c.derivedColl, c.derivedWrapper
	default:
		// joins, unions, aggregates derive from no single collection
	}
	s.ids[n] = id
	return id
}

func (s *scratch) newCtx() *nodeCtx {
	if s.ctxUsed < len(s.ctxs) {
		c := s.ctxs[s.ctxUsed]
		s.ctxUsed++
		c.reset()
		return c
	}
	c := &nodeCtx{}
	s.ctxs = append(s.ctxs, c)
	s.ctxUsed++
	return c
}

// takeMatch hands out a reset pooled match result; untakeMatch returns
// the most recent one (a failed unification) to the pool.
func (s *scratch) takeMatch() *matchResult {
	if s.matchUsed < len(s.matches) {
		m := s.matches[s.matchUsed]
		s.matchUsed++
		m.reset()
		return m
	}
	m := &matchResult{}
	s.matches = append(s.matches, m)
	s.matchUsed++
	return m
}

func (s *scratch) untakeMatch() { s.matchUsed-- }

// nodeCtx is the per-node working state of one estimation pass. Contexts
// are pooled on the estimator scratch; reset keeps the slice capacities.
type nodeCtx struct {
	node    *algebra.Node
	id      int32  // the node's id in the scratch (scratch.idOf)
	wrapper string // executing site: "" = mediator
	// above is the site a submit above the node imposes ("" when none);
	// built reports whether children holds the child contexts yet.
	above    string
	built    bool
	children []*nodeCtx
	// derivedColl/-Wrapper identify the single base collection the node's
	// result derives from, when there is one (select/project/... chains
	// over one scan); joins and unions have none.
	derivedColl    string
	derivedWrapper string

	vars    [NumVars]float64  // computed result variables, indexed like varOrder
	varsSet VarSet            // which entries of vars are computed
	trace   map[string]string // variable -> chosen rule (Options.Trace)
	need    VarSet

	// Phase-1 association result: matched (rule, bindings) pairs in
	// most-specific-first order, flat, with levels delimiting the runs of
	// equal (scope, specificity).
	levels   []matchLevel
	mrules   []*Rule
	mmatches []*matchResult

	// Per-rule evaluated lets of this node (small linear-scanned cache).
	lets []letEntry

	// joinSel is the node's joinsel(), computed on the first call.
	joinSel    float64
	joinSelSet bool
}

func (c *nodeCtx) reset() {
	c.node = nil
	c.id = 0
	c.wrapper = ""
	c.above = ""
	c.built = false
	c.children = c.children[:0]
	c.derivedColl = ""
	c.derivedWrapper = ""
	c.vars = [NumVars]float64{}
	c.varsSet = 0
	c.trace = nil
	c.need = 0
	c.levels = c.levels[:0]
	c.mrules = c.mrules[:0]
	c.mmatches = c.mmatches[:0]
	c.lets = c.lets[:0]
	c.joinSel, c.joinSelSet = 0, false
}

// matchLevel delimits the matched rules of one (scope, specificity) level:
// indexes [start, end) into the context's flat mrules/mmatches.
type matchLevel struct {
	scope       Scope
	specificity int
	start, end  int
}

// letEntry caches one rule's evaluated lets for the current node.
type letEntry struct {
	rule *Rule
	vals []letVal
}

// letVal is one evaluated let, keyed by its exact source spelling.
type letVal struct {
	name string
	val  types.Constant
}

// letsFor returns the cached lets of a rule, if already evaluated.
func (c *nodeCtx) letsFor(r *Rule) ([]letVal, bool) {
	for i := range c.lets {
		if c.lets[i].rule == r {
			return c.lets[i].vals, true
		}
	}
	return nil, false
}

// addLets appends a (reused-capacity) cache entry for a rule's lets.
func (c *nodeCtx) addLets(r *Rule) *letEntry {
	if len(c.lets) < cap(c.lets) {
		c.lets = c.lets[:len(c.lets)+1]
	} else {
		c.lets = append(c.lets, letEntry{})
	}
	e := &c.lets[len(c.lets)-1]
	e.rule = r
	e.vals = e.vals[:0]
	return e
}

// dropLastLets removes the entry addLets just created (a let failed to
// evaluate; failures are not cached, matching the fallback semantics).
func (c *nodeCtx) dropLastLets() { c.lets = c.lets[:len(c.lets)-1] }

// scratch returns the estimator's scratch arena, taking one from the pool
// on first use.
func (e *Estimator) scratch() *scratch {
	if e.scr == nil {
		e.scr = scratchPool.Get().(*scratch)
	}
	return e.scr
}

// run executes the two-phase algorithm over a resolved plan and returns
// the root context; the context tree is valid until the estimator's next
// estimation. A non-nil table answers and records priced nodes; descend
// makes the walk visit, below an answered node, the children its
// estimate read.
func (e *Estimator) run(plan *algebra.Node, table *searchTable, descend bool) (*nodeCtx, error) {
	sc := e.scratch()
	sc.reset()
	sc.env.est, sc.env.sc, sc.env.rule = e, sc, nil
	if sc.search == nil {
		sc.foldVersion = e.foldVersion()
	}
	sc.table, sc.descend = table, descend
	root := sc.ctxFor(plan, "")
	if err := e.estimateNode(sc, root, e.rootNeed()); err != nil {
		return nil, err
	}
	return root, nil
}

// rootNeed is the set of variables the caller needs at the plan root.
func (e *Estimator) rootNeed() VarSet {
	if !e.Options.RequiredVarsOnly || len(e.Options.RootVars) == 0 {
		return allVarSet
	}
	var need VarSet
	for _, v := range e.Options.RootVars {
		if vi := varIndex(v); vi >= 0 {
			need = need.With(vi)
		}
	}
	return need
}

// Estimate runs the two-phase algorithm of Figure 11 over a resolved plan
// and returns per-node costs. The plan must have been resolved
// (algebra.Resolve) so schemas are available.
//
// Inside a search (BeginSearch) Estimate answers every node the search
// has priced from its record, as EstimateRoot does, and still visits the
// nodes below so that every node gets its variables: the returned costs
// are the ones the search compared. A history rule published during the
// search therefore reaches only the nodes priced after it; the next search
// sees it everywhere. With Options.Trace (so that ChosenRules names every
// node's rules), outside a search, or under a RequiredVarsOnly setting
// other than the search's, Estimate walks the whole plan.
func (e *Estimator) Estimate(plan *algebra.Node) (*PlanCost, error) {
	var table *searchTable
	if !e.Options.Trace {
		table = e.liveTable()
	}
	root, err := e.run(plan, table, true)
	if err != nil {
		return nil, err
	}
	sc := e.scr
	pc := &PlanCost{
		ByNode:       make(map[*algebra.Node]*NodeCost, sc.ctxUsed),
		NodesVisited: sc.nodesVisited,
		FormulaEvals: sc.formulaEvals,
		RulesMatched: sc.rulesMatched,
	}
	collect(sc, root, pc)
	pc.Root = pc.ByNode[plan]
	return pc, nil
}

// EstimateRoot estimates a resolved plan and returns only the root result
// variables. It is the optimizer's candidate-pricing fast path: the same
// algorithm as Estimate, without materializing the per-node cost maps —
// in steady state it performs no heap allocation at all. Inside a search
// (BeginSearch) it prices only the nodes the search has not priced yet.
func (e *Estimator) EstimateRoot(plan *algebra.Node) (RootCost, error) {
	root, err := e.run(plan, e.liveTable(), false)
	if err != nil {
		return RootCost{}, err
	}
	return RootCost{vars: root.vars, set: root.varsSet}, nil
}

// collect copies the pooled context tree into the long-lived PlanCost
// maps (the contexts themselves are reused by the next estimation). A
// subtree the walk did not enter gets its contexts here, with no
// variables.
func collect(sc *scratch, ctx *nodeCtx, pc *PlanCost) {
	vars := make(map[string]float64, NumVars)
	for vi := 0; vi < NumVars; vi++ {
		if ctx.varsSet.Has(vi) {
			vars[varOrder[vi]] = ctx.vars[vi]
		}
	}
	pc.ByNode[ctx.node] = &NodeCost{Vars: vars, ChosenRules: ctx.trace}
	sc.buildChildren(ctx)
	for _, c := range ctx.children {
		collect(sc, c, pc)
	}
}

// ctxFor returns a fresh context for a node under a submit to above (""
// when none): the executing site and derived collection come from the
// node's info. Its children get contexts when the walk needs them
// (buildChildren), so pricing a node the search has priced builds none.
func (sc *scratch) ctxFor(n *algebra.Node, above string) *nodeCtx {
	return sc.ctxOf(n, sc.idOf(n), above)
}

// ctxOf is ctxFor for a node whose id is known.
func (sc *scratch) ctxOf(n *algebra.Node, id int32, above string) *nodeCtx {
	info := &sc.infos[id]
	ctx := sc.newCtx()
	ctx.node, ctx.id, ctx.above = n, id, above
	// A scan always executes at the wrapper that owns its collection,
	// whether or not a submit boundary has been placed above it yet; and
	// a submit node models the target wrapper's boundary (delivery and
	// shipping), so the target's rules — exported submit rules and
	// query-scope history rules — apply to it.
	ctx.wrapper = above
	if above == "" {
		ctx.wrapper = info.site
	}
	ctx.derivedColl, ctx.derivedWrapper = info.derivedColl, info.derivedWrapper
	return ctx
}

// buildChildren gives a context its children's contexts, once.
func (sc *scratch) buildChildren(ctx *nodeCtx) {
	if ctx.built {
		return
	}
	ctx.built = true
	above := ctx.above
	if ctx.node.Kind == algebra.OpSubmit {
		above = ctx.node.Wrapper
	}
	for i, c := range ctx.node.Children {
		ctx.children = append(ctx.children, sc.ctxOf(c, sc.infos[ctx.id].kids[i], above))
	}
}

// estimateNode is the recursive step of Figure 11: (1) associate formulas
// with the node, (2) recurse into children that owe variables, (3) apply
// the formulas bottom-up.
func (e *Estimator) estimateNode(sc *scratch, ctx *nodeCtx, need VarSet) error {
	sc.nodesVisited++
	// A node the search has priced is answered from its table: its
	// variables are a function of its subtree, site and need set.
	if sc.table != nil {
		if ent, ok := sc.priced(ctx.id, ctx.wrapper, need); ok {
			ctx.vars, ctx.varsSet = ent.vars, ent.set
			if !sc.descend {
				return nil
			}
			childNeeds := ent.childNeeds
			sc.buildChildren(ctx)
			return e.estimateChildren(sc, ctx, &childNeeds)
		}
	}
	sc.buildChildren(ctx)
	// Step 1: associate cost formulas with node (most specific rules).
	e.associate(sc, ctx)

	// Close `need` under self-references: a needed variable's candidate
	// formulas may read earlier self variables.
	ctx.need = e.closeNeed(ctx, need)

	// Determine what each child must compute for the selected formulas.
	var childNeeds [2]VarSet
	e.childRequirements(ctx, &childNeeds)

	// Step 2: recursive traversal.
	if err := e.estimateChildren(sc, ctx, &childNeeds); err != nil {
		return err
	}

	// Step 3: apply formulas to node.
	e.apply(sc, ctx)
	if sc.table != nil {
		sc.table.applied++
		info := &sc.infos[ctx.id]
		info.priced = append(info.priced, pricedEntry{site: ctx.wrapper, need: need,
			tableEntry: tableEntry{RootCost: RootCost{vars: ctx.vars, set: ctx.varsSet}, childNeeds: childNeeds}})
	}
	if e.Options.Budget > 0 &&
		ctx.varsSet.Has(idxTotalTime) && ctx.vars[idxTotalTime] > e.Options.Budget {
		return ErrOverBudget
	}
	return nil
}

// estimateChildren is step 2 of Figure 11: it estimates each child for
// the variables the node's formulas read from it, cutting the traversal
// at a child that owes nothing (§4.2 optimization ii).
func (e *Estimator) estimateChildren(sc *scratch, ctx *nodeCtx, needs *[2]VarSet) error {
	for i, child := range ctx.children {
		cn := needs[i]
		if e.Options.RequiredVarsOnly && cn.Empty() {
			continue
		}
		if err := e.estimateNode(sc, child, cn); err != nil {
			return err
		}
	}
	return nil
}

// associate matches the node against the rule hierarchy and stores the
// matching levels, most specific first (paper §4.2 Step 1).
func (e *Estimator) associate(sc *scratch, ctx *nodeCtx) {
	ctx.levels = ctx.levels[:0]
	ctx.mrules = ctx.mrules[:0]
	ctx.mmatches = ctx.mmatches[:0]
	// Wrapper-site nodes consult the wrapper's own rules first, then the
	// defaults; mediator-site nodes consult local-scope then default.
	bucket, defaults, exact, gen := e.Registry.rulesForNode(ctx.wrapper, ctx.node)
	sr := sc.candidates(e.Registry, ctx, bucket, defaults, gen)
	if ctx.wrapper != "" {
		e.appendMatches(sc, ctx, sr.wrapper, exact, false)
		e.appendMatches(sc, ctx, sr.defaults, nil, true)
	} else {
		e.appendMatches(sc, ctx, sr.defaults, nil, false)
	}
}

// appendMatches unifies the node with each rule of a sorted bucket and
// appends the matches. exact, when non-nil, is the index's rule for this
// very node: it needs no unification and is appended where the
// specialization order places it among the bucket's rules.
func (e *Estimator) appendMatches(sc *scratch, ctx *nodeCtx, rules []*Rule, exact *Rule, skipLocal bool) {
	for _, r := range rules {
		if exact != nil && exact.before(r) {
			sc.rulesMatched++
			ctx.appendMatch(exact, sc.takeMatch())
			exact = nil
		}
		if skipLocal && r.Scope == ScopeLocal {
			continue
		}
		m := sc.takeMatch()
		sc.rulesMatched++
		if !matchRule(r, ctx, m) {
			sc.untakeMatch()
			continue
		}
		ctx.appendMatch(r, m)
	}
	if exact != nil {
		sc.rulesMatched++
		ctx.appendMatch(exact, sc.takeMatch())
	}
}

// appendMatch records a matched (rule, bindings) pair, extending the last
// level when the rule shares its scope and specificity.
func (c *nodeCtx) appendMatch(r *Rule, m *matchResult) {
	n := len(c.levels)
	if n > 0 && c.levels[n-1].scope == r.Scope && c.levels[n-1].specificity == r.Specificity {
		c.levels[n-1].end++
	} else {
		c.levels = append(c.levels, matchLevel{
			scope: r.Scope, specificity: r.Specificity,
			start: len(c.mrules), end: len(c.mrules) + 1,
		})
	}
	c.mrules = append(c.mrules, r)
	c.mmatches = append(c.mmatches, m)
}

// closeNeed extends the needed-variable set with self-referenced earlier
// variables of the candidate formulas. The per-rule closures are
// precomputed at integration time (Rule.Finalize), so the fixpoint is a
// handful of bitmask folds.
func (e *Estimator) closeNeed(ctx *nodeCtx, need VarSet) VarSet {
	if !e.Options.RequiredVarsOnly {
		return allVarSet
	}
	// A formula that fails at evaluation time falls through to lower
	// levels, so the closure must consider every level providing the
	// variable, not only the most specific one.
	out := need
	for changed := true; changed; {
		changed = false
		for _, r := range ctx.mrules {
			avail := r.provides & out
			for vi := 0; vi < NumVars; vi++ {
				if !avail.Has(vi) {
					continue
				}
				if nw := out | r.closure[vi]; nw != out {
					out = nw
					changed = true
				}
			}
		}
	}
	return out
}

// childRequirements inspects the selected formulas' parameter paths and
// computes, for each child, the set of result variables the formulas will
// read from it (paper §4.2 optimization i). Children number at most two,
// so the result lives in a caller-provided array.
func (e *Estimator) childRequirements(ctx *nodeCtx, reqs *[2]VarSet) {
	if len(ctx.children) == 0 {
		return
	}
	if !e.Options.RequiredVarsOnly {
		for i := range ctx.children {
			reqs[i] = allVarSet
		}
		return
	}
	// Union the references of every level a needed variable's evaluation
	// could fall through to: evaluation tries lower levels when a
	// formula fails (missing stats, unsatisfied require()), so lower
	// levels count too — until a level holds an infallible formula,
	// which is guaranteed to stop the fallback there.
	for vi := 0; vi < NumVars; vi++ {
		if !ctx.need.Has(vi) {
			continue
		}
		for li := range ctx.levels {
			lv := &ctx.levels[li]
			settled := false
			for ri := lv.start; ri < lv.end; ri++ {
				r := ctx.mrules[ri]
				if !r.provides.Has(vi) {
					continue
				}
				if r.settles.Has(vi) {
					settled = true
				}
				m := ctx.mmatches[ri]
				for _, cr := range r.childRefs[vi] {
					b := m.slot(cr.slot)
					if b.kind != bindColl || b.ctx == nil {
						continue
					}
					for i, c := range ctx.children {
						if c == b.ctx {
							reqs[i] = reqs[i].With(cr.vi)
						}
					}
				}
			}
			if settled {
				break
			}
		}
	}
}

// formulaInfallible reports whether a formula can never fail at
// evaluation time: it reads no parameters and performs no calls.
func formulaInfallible(f Formula) bool {
	return len(f.Prog.Paths) == 0 && len(f.Prog.Names) == 0
}

// apply evaluates the selected formulas in canonical variable order. For
// each variable, all formulas of the most specific providing level are
// evaluated and the lowest value is kept (paper §4.2 Step 3); formulas
// that fail (missing statistics, arithmetic errors) are skipped, and if a
// whole level fails the next, less specific level is tried. The default
// scope guarantees termination with a value for every variable.
func (e *Estimator) apply(sc *scratch, ctx *nodeCtx) {
	ctx.varsSet = 0
	ctx.lets = ctx.lets[:0]

	var trace map[string]string
	if e.Options.Trace {
		trace = make(map[string]string)
	}
	for vi := 0; vi < NumVars; vi++ {
		if !ctx.need.Has(vi) {
			continue
		}
		best := 0.0
		found := false
		var src string
		// Walk levels most-specific-first; the first level where at
		// least one formula evaluates wins.
		for li := range ctx.levels {
			lv := &ctx.levels[li]
			levelHas := false
			for ri := lv.start; ri < lv.end; ri++ {
				r := ctx.mrules[ri]
				if !r.provides.Has(vi) {
					continue
				}
				m := ctx.mmatches[ri]
				for _, fi := range r.byVar[vi] {
					levelHas = true
					val, err := e.evalFormula(sc, ctx, r, m, fi)
					if err != nil {
						continue
					}
					if !found || val < best {
						best = val
						if trace != nil {
							src = r.String()
						}
					}
					found = true
				}
			}
			if levelHas && found {
				break // more specific level supplied the value
			}
		}
		if found {
			ctx.vars[vi] = best
			ctx.varsSet = ctx.varsSet.With(vi)
			if trace != nil {
				trace[varOrder[vi]] = src
			}
		}
	}
	ctx.trace = trace
}

// evalFormula evaluates one formula against the node, lazily evaluating
// the owning rule's lets first. The eval environment and VM stack come
// from the estimator scratch, so steady-state evaluation is allocation
// free.
func (e *Estimator) evalFormula(sc *scratch, ctx *nodeCtx, r *Rule, m *matchResult, fi int) (float64, error) {
	// The environment is rewritten field by field, and only where it
	// changed: consecutive formulas often share their node, rule and
	// match, and a write of a pointer costs a write barrier while the
	// collector runs. run sets est and sc and clears rule.
	env := &sc.env
	if env.rule != r {
		env.rule, env.fold = r, e.folded(sc, r)
	}
	if env.ctx != ctx {
		env.ctx = ctx
	}
	if env.match != m {
		env.match = m
	}
	if env.locals != nil {
		env.locals = nil
	}
	rf := env.fold
	// Per-rule lets, evaluated once per (node, rule) and cached so that
	// same-named lets of different rules cannot clash. Failed lets are
	// not cached: the next formula of the rule retries (and fails the
	// same way), preserving the fallback semantics.
	if len(r.Lets) > 0 {
		if vals, ok := ctx.letsFor(r); ok {
			env.locals = vals
		} else {
			entry := ctx.addLets(r)
			for li := range r.Lets {
				prog, let := rf.body(r, true, li)
				sc.formulaEvals++
				env.prog = let
				v, err := e.evalProg(sc, env, prog)
				if err != nil {
					ctx.dropLastLets()
					return 0, err
				}
				entry.vals = append(entry.vals, letVal{name: r.Lets[li].Var, val: v})
				// Later lets may reference earlier ones.
				env.locals = entry.vals
			}
			env.locals = entry.vals
		}
	}
	sc.formulaEvals++
	prog, f := rf.body(r, false, fi)
	if env.prog != f {
		env.prog = f
	}
	v, err := e.evalProg(sc, env, prog)
	if err != nil {
		return 0, err
	}
	if !v.IsNumeric() {
		return 0, fmt.Errorf("core: formula for %s returned non-numeric %s", r.Formulas[fi].Var, v)
	}
	x := v.AsFloat()
	if x < 0 {
		x = 0
	}
	return x, nil
}

// evalProg runs a program on the scratch VM stack, growing it to the
// largest MaxStack seen so EvalStack never reallocates.
func (e *Estimator) evalProg(sc *scratch, env *evalEnv, p *costvm.Program) (types.Constant, error) {
	if cap(sc.vmStack) < p.MaxStack {
		sc.vmStack = make([]types.Constant, 0, p.MaxStack+8)
	}
	return p.EvalStack(env, sc.vmStack)
}

// Explain renders a per-node report of the estimate with the chosen rules;
// requires Options.Trace.
func (e *Estimator) Explain(plan *algebra.Node, pc *PlanCost) string {
	var b strings.Builder
	var visit func(n *algebra.Node, depth int)
	visit = func(n *algebra.Node, depth int) {
		nc := pc.ByNode[n]
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s", indent, strings.TrimSpace(strings.SplitN(n.String(), "\n", 2)[0]))
		if nc != nil {
			keys := make([]string, 0, len(nc.Vars))
			for k := range nc.Vars {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%.4g", k, nc.Vars[k]))
			}
			fmt.Fprintf(&b, "  {%s}", strings.Join(parts, " "))
			if len(nc.ChosenRules) > 0 {
				if r, ok := nc.ChosenRules["TotalTime"]; ok {
					fmt.Fprintf(&b, "  via %s", r)
				}
			}
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(plan, 0)
	return b.String()
}
