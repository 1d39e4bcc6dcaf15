// Package core implements the paper's primary contribution: the
// heterogeneous, extensible cost model of the DISCO mediator. Wrapper cost
// rules written in the cost communication language (internal/costlang) are
// integrated at registration time into a specialization hierarchy of
// scopes (paper Figure 10); during optimization the two-phase estimation
// algorithm (paper Figure 11) blends the most specific applicable formulas
// with the mediator's generic cost model, per result variable.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"disco/internal/algebra"
	"disco/internal/costlang"
	"disco/internal/costvm"
	"disco/internal/stats"
	"disco/internal/types"
)

// Scope is the applicability domain of a rule in the specialization
// hierarchy. Higher values are more specific and are matched first
// (paper §4.1/§4.2: query > predicate > collection > wrapper > local >
// default).
type Scope uint8

// The scope lattice of Figure 10 plus the mediator-side scopes.
const (
	// ScopeDefault holds the mediator's generic cost model: a rule for
	// every variable of every operator, guaranteed to match.
	ScopeDefault Scope = iota
	// ScopeLocal holds rules for operators executed by the mediator's own
	// engine (above submit boundaries).
	ScopeLocal
	// ScopeWrapper rules apply to any collection and predicate of one
	// data source.
	ScopeWrapper
	// ScopeCollection rules apply to one specific collection of a source.
	ScopeCollection
	// ScopePredicate rules apply to a specific collection with a specific
	// predicate shape (bound attribute and/or bound value).
	ScopePredicate
	// ScopeQuery rules record the observed cost of one exact subquery
	// (the historical extension of §4.3.1).
	ScopeQuery
)

// String renders the scope name.
func (s Scope) String() string {
	switch s {
	case ScopeDefault:
		return "default"
	case ScopeLocal:
		return "local"
	case ScopeWrapper:
		return "wrapper"
	case ScopeCollection:
		return "collection"
	case ScopePredicate:
		return "predicate"
	case ScopeQuery:
		return "query"
	default:
		return fmt.Sprintf("scope(%d)", uint8(s))
	}
}

// TermKind classifies one rule-head argument after integration.
type TermKind uint8

// Head-term kinds.
const (
	// TermVar is a free variable that unifies with anything in its
	// position.
	TermVar TermKind = iota
	// TermCollection is a bound collection name.
	TermCollection
	// TermCmp is an attribute-comparison pattern.
	TermCmp
)

// HeadTerm is one classified rule-head argument.
type HeadTerm struct {
	Kind TermKind
	// Name is the variable name (TermVar) or collection name
	// (TermCollection).
	Name string
	// Comparison pattern (TermCmp).
	Attr     string // bound attribute name; empty when AttrVar is set
	AttrVar  string // variable name binding the attribute
	Op       stats.CmpOp
	Value    types.Constant // bound value; meaningful when ValueVar is empty
	ValueVar string         // variable name binding the value
	BoundVal bool           // whether Value is a bound constant
	// ValueIsAttr marks a bound value that names an attribute (a
	// join-style head such as join(E, B, id = author)); it matches the
	// right-hand attribute of a join conjunct rather than a constant.
	ValueIsAttr bool

	// The match-result slots Name, AttrVar and ValueVar bind, assigned by
	// Rule.Finalize (-1 for an empty name).
	slot, attrSlot, valueSlot int
}

// String renders the classified term.
func (t HeadTerm) String() string {
	switch t.Kind {
	case TermVar:
		return "?" + t.Name
	case TermCollection:
		return t.Name
	case TermCmp:
		attr := t.Attr
		if attr == "" {
			attr = "?" + t.AttrVar
		}
		val := t.Value.String()
		if !t.BoundVal {
			val = "?" + t.ValueVar
		}
		return attr + " " + t.Op.String() + " " + val
	default:
		return "<bad term>"
	}
}

// Formula is one compiled assignment of a rule body.
type Formula struct {
	Var  string // canonical result-variable name
	Prog *costvm.Program

	// refs classifies Prog.Paths, index for index, against the owning
	// rule; filled by Rule.Finalize.
	refs []pathRef
}

// Rule is a compiled, integrated cost rule. Rules are immutable after
// integration and shared across estimations.
type Rule struct {
	// Op is the operator kind the rule head names.
	Op algebra.OpKind
	// Terms are the classified head arguments.
	Terms []HeadTerm
	// Lets are per-rule local definitions, evaluated in order before the
	// formulas.
	Lets []Formula
	// Formulas are the result assignments, in source order.
	Formulas []Formula
	// Scope is the rule's position in the specialization hierarchy.
	Scope Scope
	// Wrapper is the owning data source; empty for default/local rules.
	Wrapper string
	// Specificity counts bound parameters in the head (collection names,
	// attribute names, values, operator): the within-scope ordering of
	// paper §3.3.2.
	Specificity int
	// Seq is the registration order; the earlier rule wins ties
	// ("we select the first one in the order given by the wrapper
	// implementor").
	Seq int
	// Exact, when non-nil, restricts the rule to nodes whose whole
	// subtree is structurally equal to this plan — the query scope of
	// §4.3.1, where a rule records the observed cost of one exact
	// subquery.
	Exact *algebra.Node
	// Funcs resolves function calls in this rule's formulas (stdlib plus
	// the owning wrapper's defs).
	Funcs *costvm.FuncRegistry
	// Globals are the owning wrapper's top-level lets, pre-evaluated.
	Globals map[string]types.Constant
	// Source describes where the rule came from, for Explain output.
	Source string

	// Matching metadata precomputed by Finalize so the estimation hot loop
	// runs on bitsets instead of re-scanning formula strings and parameter
	// paths per node. Every registry integration path finalizes.
	provides  VarSet              // variables some formula assigns
	settles   VarSet              // variables with an infallible formula (and no lets)
	closure   [NumVars]VarSet     // self result variables read when computing variable i
	childRefs [NumVars][]childRef // child result variables read when computing variable i
	byVar     [NumVars][]int      // indexes of the formulas computing variable i, in source order
	exactHash algebra.Hash128     // Exact plan's structural hash (when Exact != nil)
	// slots are the head's variable names, one per case-insensitively
	// distinct name in head order; a match binds by slot.
	slots []string
	// plain marks a rule whose bodies read nothing (readsNothing); fold
	// is the latest fold of any other rule (see fold.go).
	plain bool
	fold  atomic.Pointer[ruleFold]
}

// childRef is one precomputed child-variable reference of a rule body: the
// head slot whose bound child must supply result variable vi.
type childRef struct {
	slot int
	vi   int
}

// Finalize computes the rule's derived matching metadata. Registry
// integration calls it for every rule; it must be called again after any
// in-place mutation of Terms, Formulas or Lets.
func (r *Rule) Finalize() {
	r.slots = r.slots[:0]
	for i := range r.Terms {
		t := &r.Terms[i]
		t.slot, t.attrSlot, t.valueSlot = -1, -1, -1
		switch t.Kind {
		case TermVar, TermCollection:
			t.slot = r.addSlot(t.Name)
		case TermCmp:
			t.attrSlot = r.addSlot(t.AttrVar)
			t.valueSlot = r.addSlot(t.ValueVar)
		}
	}
	for i := range r.Lets {
		r.Lets[i].refs = r.classifyPaths(r.Lets[i].Prog)
	}
	// Let bodies run before every formula of the rule, so their parameter
	// references count towards every provided variable.
	var letSelf VarSet
	var letChild []childRef
	for _, f := range r.Lets {
		for pi, p := range f.Prog.Paths {
			if len(p) == 1 {
				if vi := varIndex(p[0]); vi >= 0 {
					letSelf = letSelf.With(vi)
				}
			} else if len(p) == 2 {
				if vi := varIndex(p[1]); vi >= 0 {
					letChild = addChildRef(letChild, f.refs[pi].slot, vi)
				}
			}
		}
	}
	r.provides, r.settles = 0, 0
	for i := range r.closure {
		r.closure[i] = 0
		r.childRefs[i] = nil
		r.byVar[i] = nil
	}
	for i := range r.Formulas {
		f := &r.Formulas[i]
		f.refs = r.classifyPaths(f.Prog)
		vi := varIndexExact(f.Var)
		if vi < 0 {
			continue
		}
		r.provides = r.provides.With(vi)
		r.byVar[vi] = append(r.byVar[vi], i)
		if formulaInfallible(*f) && len(r.Lets) == 0 {
			r.settles = r.settles.With(vi)
		}
		r.closure[vi] |= letSelf
		for _, c := range letChild {
			r.childRefs[vi] = addChildRef(r.childRefs[vi], c.slot, c.vi)
		}
		for pi, p := range f.Prog.Paths {
			if len(p) == 1 {
				if j := varIndex(p[0]); j >= 0 {
					r.closure[vi] = r.closure[vi].With(j)
				}
			} else if len(p) == 2 {
				if j := varIndex(p[1]); j >= 0 {
					r.childRefs[vi] = addChildRef(r.childRefs[vi], f.refs[pi].slot, j)
				}
			}
		}
	}
	if r.Exact != nil {
		r.exactHash = r.Exact.StructuralHash()
	}
	r.plain = readsNothing(r)
	r.fold.Store(nil)
}

// addSlot returns the slot of a head variable name, adding one for a name
// no earlier term bound (names compare case-insensitively); -1 for "".
func (r *Rule) addSlot(name string) int {
	if name == "" {
		return -1
	}
	if s := r.slotOf(name); s >= 0 {
		return s
	}
	r.slots = append(r.slots, name)
	return len(r.slots) - 1
}

// slotOf returns the slot a name binds in the rule's head, or -1.
func (r *Rule) slotOf(name string) int {
	for i, s := range r.slots {
		if strings.EqualFold(s, name) {
			return i
		}
	}
	return -1
}

// addChildRef records that the child bound at slot must supply variable
// vi. A name no head term binds never resolves to a child, so it needs
// nothing.
func addChildRef(refs []childRef, slot, vi int) []childRef {
	if slot < 0 {
		return refs
	}
	for _, c := range refs {
		if c.vi == vi && c.slot == slot {
			return refs
		}
	}
	return append(refs, childRef{slot: slot, vi: vi})
}

// Head renders the rule head for diagnostics.
func (r *Rule) Head() string {
	parts := make([]string, len(r.Terms))
	for i, t := range r.Terms {
		parts[i] = t.String()
	}
	return r.Op.String() + "(" + strings.Join(parts, ", ") + ")"
}

// String renders scope, head and provided variables.
func (r *Rule) String() string {
	vars := make([]string, 0, len(r.Formulas))
	seen := map[string]bool{}
	for _, f := range r.Formulas {
		if !seen[f.Var] {
			vars = append(vars, f.Var)
			seen[f.Var] = true
		}
	}
	return fmt.Sprintf("[%s/%d] %s -> {%s}", r.Scope, r.Specificity, r.Head(), strings.Join(vars, ", "))
}

// CatalogView is what rule integration and estimation need to know about
// registered sources: schema membership tests for head classification and
// statistics for formula evaluation. The mediator catalog implements it.
type CatalogView interface {
	// HasCollection reports whether the wrapper exports the collection.
	HasCollection(wrapper, collection string) bool
	// HasAttribute reports whether the collection (or, when collection is
	// empty, any collection of the wrapper) has the attribute.
	HasAttribute(wrapper, collection, attr string) bool
	// Extent returns extent statistics; ok is false when the wrapper
	// exported none (the estimator then falls back to DefaultExtent).
	Extent(wrapper, collection string) (stats.ExtentStats, bool)
	// Attribute returns attribute statistics; ok is false when unknown.
	Attribute(wrapper, collection, attr string) (stats.AttributeStats, bool)
}

// DefaultExtent is the "standard values given, as usual" fallback (paper
// §6) when a source exports no statistics.
var DefaultExtent = stats.ExtentStats{CountObject: 1000, TotalSize: 100_000, ObjectSize: 100}

// DefaultAttribute is the fallback attribute statistics.
var DefaultAttribute = stats.AttributeStats{Indexed: false, CountDistinct: 100}

// Registry holds all integrated rules, bucketed per wrapper, each bucket
// pre-sorted by (scope desc, specificity desc, seq asc) so that matching
// walks candidates most-specific-first. Per-operator dispatch tables (the
// paper's "own efficient [overriding mechanism] based on kind of virtual
// tables", §3.3.2) keep matching time independent of rules for other
// operators.
//
// Query-scope rules that name one exact subquery and bind nothing — the
// history recorder's (§4.3.1), one per observed subquery shape — are not
// in the buckets: they live in a hash index keyed by the subquery's
// structural hash, so a wrapper's ten thousandth observed shape costs the
// same to add, replace, drop and look up as its first, and no estimation
// ever unifies against a shape that cannot apply.
//
// The registry is safe for concurrent use: estimations read rule slices
// while registrations, re-registrations, outage-driven drops and the
// history recorder's query-scope injections mutate them. Bucket mutators
// publish copy-on-write — they build fresh slices and index maps and swap
// them in under the write lock — so a reader that fetched a slice before
// a mutation keeps iterating its (now superseded) snapshot safely. The
// exact index is updated in place under the write lock and read one rule
// at a time under the read lock. Published rules themselves are
// immutable, updates replace the rule pointer.
type Registry struct {
	mu           sync.RWMutex
	defaults     []*Rule // ScopeDefault and ScopeLocal
	defaultsByOp *opRules
	byWrapper    map[string][]*Rule
	byWrapperOp  map[string]*opRules
	exact        map[exactKey]map[algebra.Hash128]*Rule
	seq          int
	baseFuncs    *costvm.FuncRegistry
	// gen counts the changes to the buckets (not to the exact index), so
	// that what is derived from them, such as the estimator's candidate
	// rules per node shape, knows when to start over.
	gen uint64
}

// exactKey names one exact-rule index: the rules of one wrapper for one
// operator kind, so a node is hashed only when some exact rule could
// apply to it.
type exactKey struct {
	wrapper string
	op      algebra.OpKind
}

// indexed reports whether the rule lives in the exact index rather than
// in its wrapper's sorted bucket.
func (r *Rule) indexed() bool { return r.Exact != nil && len(r.Terms) == 0 }

// NewRegistry returns an empty registry whose rules share the given base
// function registry (nil means a fresh stdlib registry).
func NewRegistry(base *costvm.FuncRegistry) *Registry {
	if base == nil {
		base = costvm.NewFuncRegistry()
	}
	return &Registry{
		byWrapper:    make(map[string][]*Rule),
		byWrapperOp:  make(map[string]*opRules),
		defaultsByOp: new(opRules),
		exact:        make(map[exactKey]map[algebra.Hash128]*Rule),
		baseFuncs:    base,
	}
}

// RuleCount reports the total number of integrated rules.
func (reg *Registry) RuleCount() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	n := len(reg.defaults)
	for _, rs := range reg.byWrapper {
		n += len(rs)
	}
	for _, idx := range reg.exact {
		n += len(idx)
	}
	return n
}

// WrapperRules returns the integrated rules of one wrapper (sorted
// most-specific-first); the slice must not be modified.
func (reg *Registry) WrapperRules(wrapper string) []*Rule {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	bucket := reg.byWrapper[wrapper]
	rules := bucket[:len(bucket):len(bucket)] // appending copies: the bucket is shared
	for k, idx := range reg.exact {
		if k.wrapper == wrapper {
			for _, r := range idx {
				rules = append(rules, r)
			}
		}
	}
	if len(rules) > len(bucket) {
		sortRules(rules)
	}
	return rules
}

// IntegrateDefaults compiles a cost-language file into default-scope (or,
// when local is true, local-scope) rules. Head identifiers are all treated
// as free variables — the generic model never names collections.
func (reg *Registry) IntegrateDefaults(file *costlang.File, local bool) error {
	scope := ScopeDefault
	if local {
		scope = ScopeLocal
	}
	funcs := reg.baseFuncs.Clone()
	globals, err := evalGlobals(file, funcs)
	if err != nil {
		return err
	}
	for _, def := range file.Funcs {
		if err := funcs.RegisterDef(def); err != nil {
			return err
		}
	}
	fresh := make([]*Rule, 0, len(file.Rules))
	for _, rd := range file.Rules {
		rule, err := compileRule(rd, "", scope, nil, funcs, globals)
		if err != nil {
			return err
		}
		rule.Source = fmt.Sprintf("%s-scope line %d", scope, rd.Line)
		rule.Finalize()
		fresh = append(fresh, rule)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, rule := range fresh {
		rule.Seq = reg.seq
		reg.seq++
	}
	defaults := append(append([]*Rule(nil), reg.defaults...), fresh...)
	sortRules(defaults)
	reg.defaults = defaults
	reg.defaultsByOp = indexByOp(defaults)
	reg.gen++
	return nil
}

// IntegrateWrapper compiles the cost-language file a wrapper exported at
// registration time (paper §4.1). Head identifiers are classified against
// the wrapper's registered schema: known collection names and attribute
// names become bound constants, everything else a free variable.
func (reg *Registry) IntegrateWrapper(wrapper string, file *costlang.File, view CatalogView) error {
	if wrapper == "" {
		return fmt.Errorf("core: wrapper rules need a wrapper name")
	}
	funcs := reg.baseFuncs.Clone()
	globals, err := evalGlobals(file, funcs)
	if err != nil {
		return err
	}
	for _, def := range file.Funcs {
		if err := funcs.RegisterDef(def); err != nil {
			return err
		}
	}
	fresh := make([]*Rule, 0, len(file.Rules))
	for _, rd := range file.Rules {
		classify := &wrapperClassifier{wrapper: wrapper, view: view}
		rule, err := compileRule(rd, wrapper, 0, classify, funcs, globals)
		if err != nil {
			return err
		}
		rule.Scope = classify.scopeOf(rule)
		rule.Source = fmt.Sprintf("wrapper %s line %d", wrapper, rd.Line)
		rule.Finalize()
		fresh = append(fresh, rule)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, rule := range fresh {
		rule.Seq = reg.seq
		reg.seq++
	}
	rules := append(append([]*Rule(nil), reg.byWrapper[wrapper]...), fresh...)
	sortRules(rules)
	reg.byWrapper[wrapper] = rules
	reg.byWrapperOp[wrapper] = indexByOp(rules)
	reg.gen++
	return nil
}

// AddQueryRule injects a query-scope rule recording observed costs for a
// subquery shape; the history package uses it (§4.3.1). A rule naming one
// exact subquery with no head terms goes into the exact index, where it
// takes the place of any earlier rule for the same subquery; any other
// rule joins the wrapper's sorted bucket and is unified like a wrapper
// rule.
func (reg *Registry) AddQueryRule(wrapper string, rule *Rule) {
	rule.Scope = ScopeQuery
	rule.Wrapper = wrapper
	rule.Finalize()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	rule.Seq = reg.seq
	reg.seq++
	if rule.Funcs == nil {
		rule.Funcs = reg.baseFuncs
	}
	if rule.indexed() {
		reg.putExact(rule)
		return
	}
	rules := append(append([]*Rule(nil), reg.byWrapper[wrapper]...), rule)
	sortRules(rules)
	reg.byWrapper[wrapper] = rules
	reg.byWrapperOp[wrapper] = indexByOp(rules)
	reg.gen++
}

// putExact stores an indexed rule; the caller holds the write lock.
func (reg *Registry) putExact(rule *Rule) {
	k := exactKey{rule.Wrapper, rule.Op}
	idx := reg.exact[k]
	if idx == nil {
		idx = make(map[algebra.Hash128]*Rule)
		reg.exact[k] = idx
	}
	idx[rule.exactHash] = rule
}

// ReplaceQueryRule swaps an exact rule in the index for a fresh exact rule
// carrying updated formulas, keeping its position in the specialization
// order (the replacement inherits the old rule's sequence number). The
// history recorder uses it on repeat observations of the same subquery
// shape: published rules are immutable, so updating means replacing the
// pointer, never mutating formulas in place under readers. It returns
// false and changes nothing when either rule is not an exact, term-less
// rule, or when old is not (or no longer) published — e.g. dropped by an
// intervening re-registration.
func (reg *Registry) ReplaceQueryRule(wrapper string, old, fresh *Rule) bool {
	fresh.Scope = ScopeQuery
	fresh.Wrapper = wrapper
	fresh.Finalize()
	if !old.indexed() || !fresh.indexed() {
		return false
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if !reg.removeExact(wrapper, old) {
		return false
	}
	fresh.Seq = old.Seq
	fresh.Specificity = old.Specificity
	if fresh.Funcs == nil {
		fresh.Funcs = old.Funcs
	}
	reg.putExact(fresh)
	return true
}

// RemoveQueryRule takes an exact rule out of the index (the history
// recorder evicting a shape) and reports whether it was still there.
func (reg *Registry) RemoveQueryRule(wrapper string, rule *Rule) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.removeExact(wrapper, rule)
}

// removeExact deletes an indexed rule if it is the one published for its
// subquery; the caller holds the write lock.
func (reg *Registry) removeExact(wrapper string, rule *Rule) bool {
	idx := reg.exact[exactKey{wrapper, rule.Op}]
	if idx[rule.exactHash] != rule {
		return false
	}
	delete(idx, rule.exactHash)
	return true
}

// DropWrapper removes every rule of a wrapper (re-registration, paper
// §2.1's administrative interface).
func (reg *Registry) DropWrapper(wrapper string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.byWrapper, wrapper)
	delete(reg.byWrapperOp, wrapper)
	reg.gen++
	for k := range reg.exact {
		if k.wrapper == wrapper {
			delete(reg.exact, k)
		}
	}
}

// rulesForNode is the estimator's view of a node: for a wrapper-site
// node, the wrapper's bucket rules for the node's operator kind,
// most-specific-first (the dispatch-table view), plus the indexed rule
// naming this very subquery, if any; for any node the default/local
// rules of its kind; and the generation of the buckets (see gen). The
// node is hashed only when the wrapper has exact rules of that kind;
// Equal guards a hash collision.
func (reg *Registry) rulesForNode(wrapper string, n *algebra.Node) (bucket, defaults []*Rule, exact *Rule, gen uint64) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	if wrapper != "" {
		if idx := reg.exact[exactKey{wrapper, n.Kind}]; len(idx) > 0 {
			if r := idx[n.StructuralHash()]; r != nil && n.Equal(r.Exact) {
				exact = r
			}
		}
		if ops := reg.byWrapperOp[wrapper]; ops != nil {
			bucket = ops.of(n.Kind)
		}
	}
	return bucket, reg.defaultsByOp.of(n.Kind), exact, reg.gen
}

// opRules are sorted rules bucketed by operator kind, the per-operator
// dispatch table.
type opRules [algebra.OpSubmit + 1][]*Rule

// of returns the rules of one operator kind.
func (t *opRules) of(k algebra.OpKind) []*Rule {
	if int(k) < len(t) {
		return t[k]
	}
	return nil
}

// indexByOp buckets sorted rules by operator kind, preserving order.
func indexByOp(rules []*Rule) *opRules {
	out := new(opRules)
	for _, r := range rules {
		if int(r.Op) < len(out) {
			out[r.Op] = append(out[r.Op], r)
		}
	}
	return out
}

// sortRules orders a bucket most-specific-first. Callers finalize fresh
// rules before sorting: re-finalizing already-published rules here would
// write derived fields concurrent estimations are reading.
func sortRules(rules []*Rule) {
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].before(rules[j]) })
}

// before is the specialization order: scope, then specificity, then
// registration order.
func (r *Rule) before(o *Rule) bool {
	if r.Scope != o.Scope {
		return r.Scope > o.Scope
	}
	if r.Specificity != o.Specificity {
		return r.Specificity > o.Specificity
	}
	return r.Seq < o.Seq
}

func evalGlobals(file *costlang.File, funcs *costvm.FuncRegistry) (map[string]types.Constant, error) {
	if len(file.Lets) == 0 {
		return nil, nil
	}
	globals := make(map[string]types.Constant, len(file.Lets))
	env := &globalEnv{vars: globals, funcs: funcs}
	for _, let := range file.Lets {
		prog, err := costvm.Compile(let.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: compiling let %s: %w", let.Name, err)
		}
		v, err := prog.Eval(env)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating let %s: %w", let.Name, err)
		}
		globals[let.Name] = v
	}
	return globals, nil
}

// globalEnv resolves top-level lets against earlier lets only.
type globalEnv struct {
	vars  map[string]types.Constant
	funcs *costvm.FuncRegistry
}

func (e *globalEnv) Lookup(path []string) (types.Constant, bool) {
	if len(path) == 1 {
		v, ok := e.vars[path[0]]
		return v, ok
	}
	return types.Null, false
}

func (e *globalEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	return e.funcs.Call(name, args)
}

// wrapperClassifier classifies head identifiers against a wrapper schema.
type wrapperClassifier struct {
	wrapper string
	view    CatalogView

	boundColl bool
	boundAttr bool
	boundVal  bool
}

func (c *wrapperClassifier) collectionTerm(t costlang.HeadTerm) HeadTerm {
	if !t.Forced && c.view != nil && c.view.HasCollection(c.wrapper, t.Ident) {
		c.boundColl = true
		return HeadTerm{Kind: TermCollection, Name: t.Ident}
	}
	return HeadTerm{Kind: TermVar, Name: t.Ident}
}

func (c *wrapperClassifier) cmpTerm(boundColl string, hc *costlang.HeadCmp) HeadTerm {
	out := HeadTerm{Kind: TermCmp, Op: hc.Op}
	if !hc.AttrForced && c.view != nil && c.view.HasAttribute(c.wrapper, boundColl, hc.Attr) {
		out.Attr = hc.Attr
		c.boundAttr = true
	} else {
		out.AttrVar = hc.Attr
	}
	switch {
	case hc.Value.IsIdent() && !hc.Value.Forced && c.view != nil &&
		c.view.HasAttribute(c.wrapper, "", hc.Value.Ident):
		// A bare identifier naming a known attribute is a bound
		// attribute constant (join-style head: id = author).
		out.Value = types.Str(hc.Value.Ident)
		out.BoundVal = true
		out.ValueIsAttr = true
	case hc.Value.IsIdent():
		out.ValueVar = hc.Value.Ident
	default:
		out.Value = hc.Value.Const
		out.BoundVal = true
	}
	if out.BoundVal {
		c.boundVal = true
	}
	return out
}

// scopeOf derives the scope from what got bound during classification.
func (c *wrapperClassifier) scopeOf(*Rule) Scope {
	switch {
	case c.boundAttr || c.boundVal:
		return ScopePredicate
	case c.boundColl:
		return ScopeCollection
	default:
		return ScopeWrapper
	}
}

// compileRule classifies a parsed rule's head and compiles its body.
// classify is nil for default/local rules (everything is a variable).
func compileRule(rd *costlang.RuleDef, wrapper string, scope Scope,
	classify *wrapperClassifier, funcs *costvm.FuncRegistry,
	globals map[string]types.Constant) (*Rule, error) {

	op, ok := algebra.OpKindByName(rd.Op)
	if !ok {
		return nil, fmt.Errorf("core: rule at line %d: unknown operator %q", rd.Line, rd.Op)
	}
	rule := &Rule{Op: op, Scope: scope, Wrapper: wrapper, Funcs: funcs, Globals: globals}

	// Classify head terms. The first TermCollection seen gives the
	// context for attribute classification in later comparison terms.
	boundColl := ""
	for _, arg := range rd.Args {
		var term HeadTerm
		switch {
		case arg.Cmp != nil:
			if classify != nil {
				term = classify.cmpTerm(boundColl, arg.Cmp)
			} else {
				term = HeadTerm{Kind: TermCmp, AttrVar: arg.Cmp.Attr, Op: arg.Cmp.Op}
				if arg.Cmp.Value.IsIdent() {
					term.ValueVar = arg.Cmp.Value.Ident
				} else {
					term.Value = arg.Cmp.Value.Const
					term.BoundVal = true
				}
			}
		default:
			if classify != nil {
				term = classify.collectionTerm(arg)
				if term.Kind == TermCollection && boundColl == "" {
					boundColl = term.Name
				}
			} else {
				term = HeadTerm{Kind: TermVar, Name: arg.Ident}
			}
		}
		rule.Terms = append(rule.Terms, term)
	}
	rule.Specificity = specificity(rule.Terms)

	// Duplicate variable names in one head would make bindings ambiguous.
	seen := map[string]bool{}
	for _, t := range rule.Terms {
		for _, name := range boundNames(t) {
			key := strings.ToLower(name)
			if seen[key] {
				return nil, fmt.Errorf("core: rule %s at line %d: duplicate head variable %q", rd.Op, rd.Line, name)
			}
			seen[key] = true
		}
	}

	for _, let := range rd.Lets {
		prog, err := costvm.Compile(let.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s line %d: compiling let %s: %w", rd.Op, rd.Line, let.Name, err)
		}
		rule.Lets = append(rule.Lets, Formula{Var: let.Name, Prog: prog})
	}
	for _, as := range rd.Assigns {
		prog, err := costvm.Compile(as.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s line %d: compiling %s: %w", rd.Op, rd.Line, as.Name, err)
		}
		rule.Formulas = append(rule.Formulas, Formula{Var: as.Name, Prog: prog})
	}
	return rule, nil
}

func boundNames(t HeadTerm) []string {
	var out []string
	if t.Kind == TermVar && t.Name != "" {
		out = append(out, t.Name)
	}
	if t.Kind == TermCmp {
		if t.AttrVar != "" {
			out = append(out, t.AttrVar)
		}
		if t.ValueVar != "" {
			out = append(out, t.ValueVar)
		}
	}
	return out
}

func specificity(terms []HeadTerm) int {
	n := 0
	for _, t := range terms {
		switch t.Kind {
		case TermCollection:
			n++
		case TermCmp:
			n++ // the operator itself is bound
			if t.Attr != "" {
				n++
			}
			if t.BoundVal {
				n++
			}
		}
	}
	return n
}
