// Package algebra defines the mediator's logical algebra (paper §2.2): the
// operator trees that plans are made of — scan, select, project, sort,
// join, union, duplicate elimination, aggregation, and submit (the
// operator that models shipping a subplan to a wrapper) — together with
// the predicate language, plan printing, cloning, and traversal used by
// the optimizer and the cost model.
package algebra

import (
	"strings"

	"disco/internal/stats"
	"disco/internal/types"
)

// Ref names an attribute, optionally qualified by its collection, e.g.
// Employee.salary. The empty Collection means "resolve against whatever
// schema is in scope".
type Ref struct {
	Collection string
	Attr       string
}

// String renders the reference in dotted form.
func (r Ref) String() string {
	if r.Collection == "" {
		return r.Attr
	}
	return r.Collection + "." + r.Attr
}

// Equal reports case-insensitive equality of two references.
func (r Ref) Equal(o Ref) bool {
	return strings.EqualFold(r.Collection, o.Collection) && strings.EqualFold(r.Attr, o.Attr)
}

// Comparison is one atomic predicate: Left op Right, where Right is either
// another attribute (a join predicate, RightAttr non-nil) or a constant (a
// selection predicate).
type Comparison struct {
	Left       Ref
	Op         stats.CmpOp
	RightAttr  *Ref
	RightConst types.Constant
}

// IsJoin reports whether the comparison relates two attributes.
func (c Comparison) IsJoin() bool { return c.RightAttr != nil }

// String renders the comparison in SQL-ish syntax.
func (c Comparison) String() string {
	right := c.RightConst.String()
	if c.RightAttr != nil {
		right = c.RightAttr.String()
	}
	return c.Left.String() + " " + c.Op.String() + " " + right
}

// Clone returns an independent copy.
func (c Comparison) Clone() Comparison {
	out := c
	if c.RightAttr != nil {
		r := *c.RightAttr
		out.RightAttr = &r
	}
	return out
}

// Equal reports structural equality.
func (c Comparison) Equal(o Comparison) bool {
	if !c.Left.Equal(o.Left) || c.Op != o.Op || c.IsJoin() != o.IsJoin() {
		return false
	}
	if c.IsJoin() {
		return c.RightAttr.Equal(*o.RightAttr)
	}
	return c.RightConst.Equal(o.RightConst)
}

// Predicate is a conjunction of comparisons. A nil or empty predicate is
// trivially true.
type Predicate struct {
	Conjuncts []Comparison
}

// NewSelPred builds a single-comparison selection predicate attr op value.
func NewSelPred(attr Ref, op stats.CmpOp, value types.Constant) *Predicate {
	return &Predicate{Conjuncts: []Comparison{{Left: attr, Op: op, RightConst: value}}}
}

// NewJoinPred builds a single-comparison equi-join predicate a = b.
func NewJoinPred(left, right Ref) *Predicate {
	r := right
	return &Predicate{Conjuncts: []Comparison{{Left: left, Op: stats.CmpEQ, RightAttr: &r}}}
}

// And returns a predicate combining p's and q's conjuncts; either may be
// nil.
func (p *Predicate) And(q *Predicate) *Predicate {
	switch {
	case p == nil || len(p.Conjuncts) == 0:
		return q.Clone()
	case q == nil || len(q.Conjuncts) == 0:
		return p.Clone()
	}
	out := &Predicate{Conjuncts: make([]Comparison, 0, len(p.Conjuncts)+len(q.Conjuncts))}
	for _, c := range p.Conjuncts {
		out.Conjuncts = append(out.Conjuncts, c.Clone())
	}
	for _, c := range q.Conjuncts {
		out.Conjuncts = append(out.Conjuncts, c.Clone())
	}
	return out
}

// Clone returns an independent deep copy; nil stays nil.
func (p *Predicate) Clone() *Predicate {
	if p == nil {
		return nil
	}
	out := &Predicate{Conjuncts: make([]Comparison, len(p.Conjuncts))}
	for i, c := range p.Conjuncts {
		out.Conjuncts[i] = c.Clone()
	}
	return out
}

// Equal reports structural equality (order-sensitive); nil equals an empty
// predicate.
func (p *Predicate) Equal(q *Predicate) bool {
	pn, qn := 0, 0
	if p != nil {
		pn = len(p.Conjuncts)
	}
	if q != nil {
		qn = len(q.Conjuncts)
	}
	if pn != qn {
		return false
	}
	for i := 0; i < pn; i++ {
		if !p.Conjuncts[i].Equal(q.Conjuncts[i]) {
			return false
		}
	}
	return true
}

// String renders the conjunction joined by AND; the trivial predicate
// renders as "true".
func (p *Predicate) String() string {
	if p == nil || len(p.Conjuncts) == 0 {
		return "true"
	}
	parts := make([]string, len(p.Conjuncts))
	for i, c := range p.Conjuncts {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// Eval evaluates the predicate against a row under a schema. Unresolvable
// references evaluate to false (a conservative choice the executor relies
// on).
func (p *Predicate) Eval(schema *types.Schema, row types.Row) bool {
	if p == nil {
		return true
	}
	for _, c := range p.Conjuncts {
		li, ok := RefIndex(schema, c.Left)
		if !ok {
			return false
		}
		var right types.Constant
		if c.RightAttr != nil {
			ri, ok := RefIndex(schema, *c.RightAttr)
			if !ok {
				return false
			}
			right = row[ri]
		} else {
			right = c.RightConst
		}
		if !c.Op.Eval(row[li], right) {
			return false
		}
	}
	return true
}

// JoinComparisons returns the conjuncts relating two attributes.
func (p *Predicate) JoinComparisons() []Comparison {
	if p == nil {
		return nil
	}
	var out []Comparison
	for _, c := range p.Conjuncts {
		if c.IsJoin() {
			out = append(out, c)
		}
	}
	return out
}

// SelectionComparisons returns the conjuncts comparing an attribute to a
// constant.
func (p *Predicate) SelectionComparisons() []Comparison {
	if p == nil {
		return nil
	}
	var out []Comparison
	for _, c := range p.Conjuncts {
		if !c.IsJoin() {
			out = append(out, c)
		}
	}
	return out
}
