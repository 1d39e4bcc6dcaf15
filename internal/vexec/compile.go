package vexec

import (
	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// This file compiles predicates to position-based evaluators once per
// pipeline. The interpreted algebra.Predicate.Eval resolves attribute
// names per row per conjunct (and Ref.String allocates for qualified
// refs); the compiled form is an index load, maybe a second one, and a
// CmpOp.Eval — the main single-thread win of the vectorized engine.

// cmpSlot is one compiled conjunct: left position, operator, and either
// a right position (join comparison) or a constant.
type cmpSlot struct {
	left  int
	right int // -1 when the right side is a constant
	op    stats.CmpOp
	rc    types.Constant
}

// compiledPred evaluates a conjunction over rows of one fixed schema.
// alwaysFalse preserves Predicate.Eval's contract that a predicate with
// any unresolvable reference rejects every row.
type compiledPred struct {
	slots       []cmpSlot
	alwaysFalse bool
}

// compilePred compiles p against the schema. A nil or empty predicate
// compiles to the trivially-true evaluator.
func compilePred(s *types.Schema, p *algebra.Predicate) compiledPred {
	if p == nil {
		return compiledPred{}
	}
	out := compiledPred{slots: make([]cmpSlot, 0, len(p.Conjuncts))}
	for _, c := range p.Conjuncts {
		li, ok := algebra.RefIndex(s, c.Left)
		if !ok {
			return compiledPred{alwaysFalse: true}
		}
		slot := cmpSlot{left: li, right: -1, op: c.Op}
		if c.RightAttr != nil {
			ri, ok := algebra.RefIndex(s, *c.RightAttr)
			if !ok {
				return compiledPred{alwaysFalse: true}
			}
			slot.right = ri
		} else {
			slot.rc = c.RightConst
		}
		out.slots = append(out.slots, slot)
	}
	return out
}

// Filter returns the rows satisfying the predicate, compiled once against
// the schema; a nil or empty predicate keeps rows as they are.
func Filter(schema *types.Schema, rows []types.Row, pred *algebra.Predicate) []types.Row {
	p := compilePred(schema, pred)
	if p.trivial() {
		return rows
	}
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		if p.eval(r) {
			out = append(out, r)
		}
	}
	return out
}

func (p *compiledPred) trivial() bool { return !p.alwaysFalse && len(p.slots) == 0 }

func (p *compiledPred) eval(r types.Row) bool {
	if p.alwaysFalse {
		return false
	}
	for i := range p.slots {
		s := &p.slots[i]
		right := s.rc
		if s.right >= 0 {
			right = r[s.right]
		}
		if !s.op.Eval(r[s.left], right) {
			return false
		}
	}
	return true
}

// pairPred evaluates a predicate compiled over a joined schema against
// an (unconcatenated) left/right row pair: positions below llen read the
// left row, the rest read the right row. It lets joins verify residual
// conjuncts before paying for the row concatenation.
type pairPred struct {
	p    compiledPred
	llen int
}

func compilePairPred(joined *types.Schema, llen int, pred *algebra.Predicate) pairPred {
	return pairPred{p: compilePred(joined, pred), llen: llen}
}

func (p *pairPred) eval(l, r types.Row) bool {
	if p.p.alwaysFalse {
		return false
	}
	for i := range p.p.slots {
		s := &p.p.slots[i]
		left := pickSide(l, r, s.left, p.llen)
		right := s.rc
		if s.right >= 0 {
			right = pickSide(l, r, s.right, p.llen)
		}
		if !s.op.Eval(left, right) {
			return false
		}
	}
	return true
}

func pickSide(l, r types.Row, pos, llen int) types.Constant {
	if pos < llen {
		return l[pos]
	}
	return r[pos-llen]
}
