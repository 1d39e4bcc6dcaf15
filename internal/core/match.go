package core

import (
	"strings"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// bindKind classifies what a head variable got bound to.
type bindKind uint8

const (
	bindNone  bindKind = iota // an unbound slot
	bindColl                  // a collection term: child node and/or base collection
	bindAttr                  // an attribute name
	bindValue                 // a predicate constant
	bindPred                  // a whole predicate
)

// binding is the value a head variable unified with.
type binding struct {
	kind bindKind
	// Collection bindings: the child context (nil for scan targets) and
	// the base collection name the target derives from ("" when the
	// target is an intermediate result with no single base collection).
	ctx  *nodeCtx
	coll string
	// wrapper owning coll, for statistics lookups.
	wrapper string
	// Attribute / value bindings.
	str string
	val types.Constant
	// Predicate binding.
	pred *algebra.Predicate
}

// matchResult carries the unified bindings of one successful head match,
// plus the predicate components the match consumed (used by the contextual
// selectivity function even when the rule head bound them as constants).
// Results are pooled on the estimator's scratch space; bindings live in a
// small reused slice indexed by the rule's head slots (Rule.Finalize), so
// neither binding nor lookup compares names.
type matchResult struct {
	bindings []binding
	selAttr  string
	selOp    stats.CmpOp
	selValue types.Constant
	hasSel   bool
}

// reset clears the result for reuse, keeping the bindings capacity.
func (m *matchResult) reset() {
	m.bindings = m.bindings[:0]
	m.selAttr = ""
	m.selOp = 0
	m.selValue = types.Null
	m.hasSel = false
}

// unbind sizes the bindings to n unbound slots.
func (m *matchResult) unbind(n int) {
	if cap(m.bindings) < n {
		m.bindings = make([]binding, n)
		return
	}
	// Only the kinds are reset: a binding's other fields are read only
	// under the kind that wrote them, so stale ones are never seen, and
	// not clearing them writes no pointers.
	m.bindings = m.bindings[:n]
	for i := range m.bindings {
		m.bindings[i].kind = bindNone
	}
}

// bindColl, bindAttrName and bindConst bind a slot of a result unbind
// cleared, writing only the fields the kind uses.
func (m *matchResult) bindColl(slot int, t collTarget) {
	if slot >= 0 {
		b := &m.bindings[slot]
		b.kind, b.ctx, b.coll, b.wrapper = bindColl, t.ctx, t.coll, t.wrapper
	}
}

func (m *matchResult) bindAttrName(slot int, attr string) {
	if slot >= 0 {
		b := &m.bindings[slot]
		b.kind, b.str = bindAttr, attr
	}
}

func (m *matchResult) bindConst(slot int, v types.Constant) {
	if slot >= 0 {
		b := &m.bindings[slot]
		b.kind, b.val = bindValue, v
	}
}

// unbound is what slot returns for no slot.
var unbound binding

// slot returns a slot's binding; kind bindNone when the slot is unbound
// or out of range (-1 names no slot). The binding must not be modified.
func (m *matchResult) slot(s int) *binding {
	if s < 0 || s >= len(m.bindings) {
		return &unbound
	}
	return &m.bindings[s]
}

// collTarget is a position a collection term can unify with.
type collTarget struct {
	ctx     *nodeCtx // child context; nil when the target is the scanned base collection itself
	coll    string   // derived base collection name ("" when none)
	wrapper string
}

// matchRule unifies a rule head with a plan node (paper §3.3.2), writing
// the bindings into the caller-provided (pooled, reset) result; it reports
// whether the match succeeded.
func matchRule(rule *Rule, ctx *nodeCtx, m *matchResult) bool {
	return unify(rule, ctx, m, false)
}

// unify is matchRule; shape makes it ignore what is not part of a node's
// shape (see dispatch.go): an exact rule's subquery, and the constants a
// rule head binds.
func unify(rule *Rule, ctx *nodeCtx, m *matchResult, shape bool) bool {
	if rule.Op != ctx.node.Kind {
		return false
	}
	if rule.Exact != nil && !shape {
		// The structural hash is a cheap prefilter for the deep equality
		// check: Equal implies equal hashes, so a hash mismatch rejects
		// without walking the trees.
		if ctx.node.StructuralHash() != rule.exactHash || !ctx.node.Equal(rule.Exact) {
			return false
		}
		if len(rule.Terms) == 0 {
			// An exact rule's formulas are observed constants; no
			// bindings are needed.
			return true
		}
	}
	node := ctx.node
	m.unbind(len(rule.slots))

	// Lay out the unification targets for this operator shape. A fixed
	// array keeps the hot path off the heap (operators have at most two
	// collection positions).
	var collArr [2]collTarget
	var pred *algebra.Predicate
	hasPredPosition := false
	nColls := 1
	switch node.Kind {
	case algebra.OpScan:
		collArr[0] = collTarget{coll: node.Collection, wrapper: node.Wrapper}
	case algebra.OpSelect:
		collArr[0] = childTarget(ctx, 0)
		pred = node.Pred
		hasPredPosition = true
	case algebra.OpJoin:
		collArr[0], collArr[1] = childTarget(ctx, 0), childTarget(ctx, 1)
		nColls = 2
		pred = node.Pred
		hasPredPosition = true
	case algebra.OpUnion:
		collArr[0], collArr[1] = childTarget(ctx, 0), childTarget(ctx, 1)
		nColls = 2
	case algebra.OpProject, algebra.OpSort, algebra.OpDupElim,
		algebra.OpAggregate, algebra.OpSubmit:
		collArr[0] = childTarget(ctx, 0)
	default:
		return false
	}
	colls := collArr[:nColls]

	terms := rule.Terms
	// Unify collection positions.
	for i := range colls {
		if i >= len(terms) {
			return false // head has fewer args than the operator shape
		}
		if !unifyColl(m, &terms[i], &colls[i]) {
			return false
		}
	}
	rest := terms[len(colls):]

	// Unify the predicate position, if the operator has one and the head
	// supplies a term for it.
	if len(rest) > 0 {
		if !hasPredPosition {
			return false // e.g. scan(C, X) can never match
		}
		if len(rest) > 1 {
			return false
		}
		if !unifyPred(m, &rest[0], pred, shape) {
			return false
		}
	}
	return true
}

func childTarget(ctx *nodeCtx, i int) collTarget {
	c := ctx.children[i]
	return collTarget{ctx: c, coll: c.derivedColl, wrapper: c.derivedWrapper}
}

func unifyColl(m *matchResult, t *HeadTerm, target *collTarget) bool {
	switch t.Kind {
	case TermVar:
		m.bindColl(t.slot, *target)
		return true
	case TermCollection:
		if !strings.EqualFold(t.Name, target.coll) {
			return false
		}
		m.bindColl(t.slot, *target)
		return true
	default:
		return false // a comparison cannot appear in a collection position
	}
}

// unifyPred unifies a head predicate term with a node predicate. A
// variable term matches any predicate; a comparison term matches a
// single-conjunct predicate (the optimizer cascades conjunctive selects,
// so wrapper-visible predicates are single comparisons).
func unifyPred(m *matchResult, t *HeadTerm, pred *algebra.Predicate, shape bool) bool {
	if t.Kind == TermVar {
		if t.slot >= 0 {
			b := &m.bindings[t.slot]
			b.kind, b.pred = bindPred, pred
		}
		if pred != nil && len(pred.Conjuncts) == 1 {
			recordSel(m, &pred.Conjuncts[0])
		}
		return true
	}
	if t.Kind != TermCmp {
		return false
	}
	if pred == nil || len(pred.Conjuncts) != 1 {
		return false
	}
	c := &pred.Conjuncts[0]
	if matchCmp(m, t, c, shape) {
		recordSel(m, c)
		return true
	}
	// Equi-comparisons are symmetric: try the flipped conjunct so that a
	// head `a = b` also matches a node predicate `b = a`. The comparison is
	// passed as parts rather than a rebuilt Comparison so no local escapes.
	if c.IsJoin() {
		if matchCmpParts(m, t, c.RightAttr.Attr, c.Op.Flip(), true, c.Left.Attr, types.Null, shape) {
			recordSel(m, c)
			return true
		}
	}
	return false
}

func recordSel(m *matchResult, c *algebra.Comparison) {
	if c.IsJoin() {
		return
	}
	m.selAttr = c.Left.Attr
	m.selOp = c.Op
	m.selValue = c.RightConst
	m.hasSel = true
}

func matchCmp(m *matchResult, t *HeadTerm, c *algebra.Comparison, shape bool) bool {
	if c.IsJoin() {
		return matchCmpParts(m, t, c.Left.Attr, c.Op, true, c.RightAttr.Attr, types.Null, shape)
	}
	return matchCmpParts(m, t, c.Left.Attr, c.Op, false, "", c.RightConst, shape)
}

// matchCmpParts unifies a head comparison term against a node comparison
// decomposed into its parts: leftAttr op rightAttr (join) or
// leftAttr op rightConst (selection); shape ignores rightConst.
func matchCmpParts(m *matchResult, t *HeadTerm, leftAttr string, op stats.CmpOp,
	isJoin bool, rightAttr string, rightConst types.Constant, shape bool) bool {
	if t.Op != op {
		return false
	}
	// Attribute side.
	if t.Attr != "" {
		if !strings.EqualFold(t.Attr, leftAttr) {
			return false
		}
	}
	// Value side.
	if isJoin {
		// The right-hand side is an attribute.
		if t.BoundVal {
			if !t.ValueIsAttr || !strings.EqualFold(t.Value.AsString(), rightAttr) {
				return false
			}
		}
	} else {
		// The right-hand side is a constant.
		if t.BoundVal {
			if t.ValueIsAttr || !shape && !t.Value.Equal(rightConst) {
				return false
			}
		}
	}
	// All constraints hold; produce bindings (after constraints so a
	// failed match leaves no partial bindings behind... bindings are
	// per-call anyway, but partial state would leak through the flipped
	// retry in unifyPred).
	m.bindAttrName(t.attrSlot, leftAttr)
	if isJoin {
		m.bindAttrName(t.valueSlot, rightAttr)
	} else {
		m.bindConst(t.valueSlot, rightConst)
	}
	return true
}
