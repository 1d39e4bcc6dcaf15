package algebra

import (
	"math"
	"strconv"
	"strings"

	"disco/internal/types"
)

// This file defines the canonical subplan signature: the readable
// reference that hash_test.go checks StructuralHash against, and the
// plan form test goldens print. The signature is a total, unambiguous
// textual encoding of a plan tree with the property that
//
//	a.Signature() == b.Signature()  <=>  a.Equal(b)
//
// so two structurally different plans never share one. Fields that Equal
// compares case-insensitively (attribute references, projection columns)
// are case-folded here; fields it compares exactly (collection and
// wrapper names, aggregate aliases) are not. Every variable-length field
// is delimiter-quoted so that adversarial names cannot collide.

// Signature returns the canonical encoding of the plan tree.
func (n *Node) Signature() string {
	var b strings.Builder
	n.appendSig(&b)
	return b.String()
}

func (n *Node) appendSig(b *strings.Builder) {
	if n == nil {
		b.WriteString("~")
		return
	}
	b.WriteString(strconv.Itoa(int(n.Kind)))
	b.WriteByte('(')
	switch n.Kind {
	case OpScan, OpSubmit:
		b.WriteString(strconv.Quote(n.Collection))
		b.WriteByte('@')
		b.WriteString(strconv.Quote(n.Wrapper))
	}
	if n.Pred != nil || n.Kind == OpSelect || n.Kind == OpJoin {
		b.WriteString("p[")
		appendPredSig(b, n.Pred)
		b.WriteByte(']')
	}
	if len(n.Cols) > 0 {
		b.WriteString("c[")
		for _, c := range n.Cols {
			b.WriteString(strconv.Quote(strings.ToLower(c)))
			b.WriteByte(',')
		}
		b.WriteByte(']')
	}
	if len(n.Keys) > 0 {
		b.WriteString("k[")
		for _, k := range n.Keys {
			appendRefSig(b, k.Attr)
			if k.Desc {
				b.WriteByte('-')
			} else {
				b.WriteByte('+')
			}
		}
		b.WriteByte(']')
	}
	if len(n.GroupBy) > 0 {
		b.WriteString("g[")
		for _, g := range n.GroupBy {
			appendRefSig(b, g)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	}
	if len(n.Aggs) > 0 {
		b.WriteString("a[")
		for _, a := range n.Aggs {
			b.WriteString(strconv.Itoa(int(a.Func)))
			if a.Star {
				b.WriteByte('*')
			} else {
				appendRefSig(b, a.Attr)
			}
			b.WriteString(strconv.Quote(a.As))
			b.WriteByte(',')
		}
		b.WriteByte(']')
	}
	for _, c := range n.Children {
		c.appendSig(b)
	}
	b.WriteByte(')')
}

func appendPredSig(b *strings.Builder, p *Predicate) {
	// Equal treats nil and the empty predicate as equal; both encode as
	// the empty conjunct list.
	if p == nil {
		return
	}
	for _, c := range p.Conjuncts {
		appendRefSig(b, c.Left)
		b.WriteString(strconv.Itoa(int(c.Op)))
		if c.RightAttr != nil {
			b.WriteByte('r')
			appendRefSig(b, *c.RightAttr)
		} else {
			b.WriteByte('v')
			appendConstSig(b, c.RightConst)
		}
		b.WriteByte(';')
	}
}

func appendRefSig(b *strings.Builder, r Ref) {
	// Ref.Equal folds case on both segments.
	b.WriteString(strconv.Quote(strings.ToLower(r.Collection)))
	b.WriteByte('.')
	b.WriteString(strconv.Quote(strings.ToLower(r.Attr)))
}

// appendConstSig encodes a constant so that exactly the values
// Constant.Equal identifies share an encoding: numerics (int and float
// alike) canonicalize to their float64 bits, the rest carry a kind tag.
func appendConstSig(b *strings.Builder, c types.Constant) {
	switch {
	case c.IsNumeric():
		b.WriteByte('n')
		b.WriteString(strconv.FormatUint(math.Float64bits(c.AsFloat()), 16))
	case c.Kind() == types.KindString:
		b.WriteByte('s')
		b.WriteString(strconv.Quote(c.AsString()))
	case c.Kind() == types.KindBool:
		if c.AsBool() {
			b.WriteString("bt")
		} else {
			b.WriteString("bf")
		}
	default:
		b.WriteByte('_')
	}
}
