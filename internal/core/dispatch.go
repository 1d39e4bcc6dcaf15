package core

import (
	"disco/internal/algebra"
	"disco/internal/stats"
)

// Dispatch: which rules can match a node depends only on the node's
// shape — its executing site, its operator, the collections its
// collection positions derive from, and its predicate's shape (how many
// conjuncts; for one, whether it joins, its operator and its attribute
// names). Constants are not part of the shape: a rule binding a constant
// stays a candidate and unification checks the constant. The scratch
// keeps the candidates per shape for one registry generation, in the
// specialization order (Rule.before), so estimating a node unifies only
// rules that can match it, and binds them.

// shapeKey is a node's shape.
type shapeKey struct {
	site  string
	kind  algebra.OpKind
	colls [2]string
	pred  predShape
}

// predShape is a predicate's shape: the conjunct count and, for a single
// conjunct, everything about it but its constant.
type predShape struct {
	n                 int
	join              bool
	op                stats.CmpOp
	leftAttr, rightAt string
}

// shapeRules are the candidate rules of one shape: the wrapper's bucket
// (for a wrapper-site node) and the defaults, each in bucket order.
type shapeRules struct {
	wrapper, defaults []*Rule
}

// dispatch is a scratch's shape cache for one registry generation.
type dispatch struct {
	reg    *Registry
	gen    uint64
	shapes map[shapeKey]*shapeRules
}

// maxShapes bounds the cache; a workload with more shapes starts over.
const maxShapes = 4096

// shapeOf returns the shape of a context whose children are built.
func shapeOf(ctx *nodeCtx) shapeKey {
	n := ctx.node
	k := shapeKey{site: ctx.wrapper, kind: n.Kind}
	switch n.Kind {
	case algebra.OpScan:
		k.colls[0] = ctx.derivedColl
	case algebra.OpJoin, algebra.OpUnion:
		k.colls[0], k.colls[1] = ctx.children[0].derivedColl, ctx.children[1].derivedColl
	default:
		if len(ctx.children) > 0 {
			k.colls[0] = ctx.children[0].derivedColl
		}
	}
	if p := n.Pred; p != nil {
		k.pred.n = len(p.Conjuncts)
		if k.pred.n == 1 {
			c := &p.Conjuncts[0]
			k.pred.join, k.pred.op, k.pred.leftAttr = c.IsJoin(), c.Op, c.Left.Attr
			if c.IsJoin() {
				k.pred.rightAt = c.RightAttr.Attr
			}
		}
	}
	return k
}

// candidates returns the rules that can match a node of the context's
// shape, computing them on the shape's first node.
func (sc *scratch) candidates(reg *Registry, ctx *nodeCtx, bucket, defaults []*Rule, gen uint64) *shapeRules {
	d := &sc.dispatch
	if d.reg != reg || d.gen != gen || len(d.shapes) >= maxShapes {
		d.reg, d.gen = reg, gen
		if d.shapes == nil {
			d.shapes = make(map[shapeKey]*shapeRules)
		}
		clear(d.shapes)
	}
	key := shapeOf(ctx)
	if sr, ok := d.shapes[key]; ok {
		return sr
	}
	sr := &shapeRules{}
	var m matchResult
	for _, r := range bucket {
		if shapeMatches(r, ctx, &m) {
			sr.wrapper = append(sr.wrapper, r)
		}
	}
	for _, r := range defaults {
		if shapeMatches(r, ctx, &m) {
			sr.defaults = append(sr.defaults, r)
		}
	}
	d.shapes[key] = sr
	return sr
}

// shapeMatches reports whether a rule can match nodes of the context's
// shape: whether it unifies with the node up to constants.
func shapeMatches(r *Rule, ctx *nodeCtx, m *matchResult) bool {
	m.reset()
	return unify(r, ctx, m, true)
}
