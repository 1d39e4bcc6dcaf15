package algebra

import (
	"fmt"
	"strings"

	"disco/internal/types"
)

// OpKind enumerates the logical operators of the mediator algebra.
type OpKind uint8

// The operator set of paper §2.2: unary scan/select/project/sort, binary
// join/union, aggregate operators (group-by aggregation and duplicate
// elimination), and submit, which models shipping a subplan to a wrapper.
const (
	OpScan OpKind = iota
	OpSelect
	OpProject
	OpSort
	OpJoin
	OpUnion
	OpDupElim
	OpAggregate
	OpSubmit
)

var opNames = [...]string{
	OpScan:      "scan",
	OpSelect:    "select",
	OpProject:   "project",
	OpSort:      "sort",
	OpJoin:      "join",
	OpUnion:     "union",
	OpDupElim:   "dupelim",
	OpAggregate: "aggregate",
	OpSubmit:    "submit",
}

// String returns the lower-case operator name used in cost-rule heads.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// OpKindByName resolves a rule-head operator name; ok is false for unknown
// names.
func OpKindByName(name string) (OpKind, bool) {
	for k, n := range opNames {
		if n == name {
			return OpKind(k), true
		}
	}
	return 0, false
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String renders the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggSpec is one aggregate computation over an input attribute. Attr is
// ignored for COUNT(*).
type AggSpec struct {
	Func AggFunc
	Attr Ref
	Star bool // COUNT(*)
	As   string
}

// String renders e.g. sum(Employee.salary) or count(*).
func (a AggSpec) String() string {
	arg := a.Attr.String()
	if a.Star {
		arg = "*"
	}
	s := a.Func.String() + "(" + arg + ")"
	if a.As != "" {
		s += " AS " + a.As
	}
	return s
}

// SortKey orders by one attribute.
type SortKey struct {
	Attr Ref
	Desc bool
}

// String renders e.g. salary DESC.
func (k SortKey) String() string {
	if k.Desc {
		return k.Attr.String() + " DESC"
	}
	return k.Attr.String()
}

// Node is one operator in a logical plan tree. The same structure is used
// before and after optimization; the optimizer rewrites trees, the cost
// model annotates them (in its own side tables), and Submit nodes mark
// wrapper subplan boundaries.
type Node struct {
	Kind OpKind

	// Scan fields.
	Collection string // collection name at the data source
	Wrapper    string // owning wrapper; set on scans and submits

	// Select / Join predicate.
	Pred *Predicate

	// Project columns.
	Cols []string

	// Sort keys.
	Keys []SortKey

	// Aggregate: grouping attributes and aggregate functions.
	GroupBy []Ref
	Aggs    []AggSpec

	// Children: 0 for scan, 1 for unary operators and submit, 2 for join
	// and union.
	Children []*Node

	// OutSchema is filled by Resolve; nil until then.
	OutSchema *types.Schema

	// Cached structural hash (see hash.go): filled lazily by
	// StructuralHash, copied by Clone, never cleared, so the structural
	// fields above must not change once it is set. It covers only those
	// fields — never OutSchema — so Resolve may fill OutSchema after it.
	hashLo, hashHi uint64
	hashOK         bool
}

// Convenience constructors. They keep plan-building code in the optimizer
// and tests declarative. A node and its children slice are one
// allocation: the plan search builds a join node per candidate.

// unary and binary are a node together with the backing array of its
// Children slice.
type unary struct {
	n    Node
	kids [1]*Node
}

type binary struct {
	n    Node
	kids [2]*Node
}

func newUnary(kind OpKind, child *Node) *Node {
	u := &unary{kids: [1]*Node{child}}
	u.n.Kind = kind
	u.n.Children = u.kids[:]
	return &u.n
}

func newBinary(kind OpKind, left, right *Node) *Node {
	b := &binary{kids: [2]*Node{left, right}}
	b.n.Kind = kind
	b.n.Children = b.kids[:]
	return &b.n
}

// Scan builds a scan of a wrapper collection.
func Scan(wrapper, collection string) *Node {
	return &Node{Kind: OpScan, Wrapper: wrapper, Collection: collection}
}

// Select filters child by pred.
func Select(child *Node, pred *Predicate) *Node {
	n := newUnary(OpSelect, child)
	n.Pred = pred
	return n
}

// Project keeps only cols of child.
func Project(child *Node, cols ...string) *Node {
	n := newUnary(OpProject, child)
	n.Cols = cols
	return n
}

// Sort orders child by keys.
func Sort(child *Node, keys ...SortKey) *Node {
	n := newUnary(OpSort, child)
	n.Keys = keys
	return n
}

// Join combines left and right under pred.
func Join(left, right *Node, pred *Predicate) *Node {
	n := newBinary(OpJoin, left, right)
	n.Pred = pred
	return n
}

// Union concatenates left and right (bag semantics).
func Union(left, right *Node) *Node { return newBinary(OpUnion, left, right) }

// DupElim removes duplicate rows of child.
func DupElim(child *Node) *Node { return newUnary(OpDupElim, child) }

// Aggregate groups child by groupBy and computes aggs.
func Aggregate(child *Node, groupBy []Ref, aggs []AggSpec) *Node {
	n := newUnary(OpAggregate, child)
	n.GroupBy, n.Aggs = groupBy, aggs
	return n
}

// Submit ships child to wrapper for execution there.
func Submit(child *Node, wrapper string) *Node {
	n := newUnary(OpSubmit, child)
	n.Wrapper = wrapper
	return n
}

// Clone deep-copies the plan tree (schemas are shared; they are
// immutable).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	out := &Node{
		Kind:       n.Kind,
		Collection: n.Collection,
		Wrapper:    n.Wrapper,
		Pred:       n.Pred.Clone(),
		OutSchema:  n.OutSchema,
		// A clone is structurally equal by construction, so the cached
		// hash transfers.
		hashLo: n.hashLo,
		hashHi: n.hashHi,
		hashOK: n.hashOK,
	}
	out.Cols = append([]string(nil), n.Cols...)
	out.Keys = append([]SortKey(nil), n.Keys...)
	out.GroupBy = append([]Ref(nil), n.GroupBy...)
	out.Aggs = append([]AggSpec(nil), n.Aggs...)
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// Equal reports structural equality of two plans, ignoring schemas.
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Kind != o.Kind || n.Collection != o.Collection || n.Wrapper != o.Wrapper {
		return false
	}
	if !n.Pred.Equal(o.Pred) {
		return false
	}
	if len(n.Cols) != len(o.Cols) || len(n.Keys) != len(o.Keys) ||
		len(n.GroupBy) != len(o.GroupBy) || len(n.Aggs) != len(o.Aggs) ||
		len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Cols {
		if !strings.EqualFold(n.Cols[i], o.Cols[i]) {
			return false
		}
	}
	for i := range n.Keys {
		if n.Keys[i].Desc != o.Keys[i].Desc || !n.Keys[i].Attr.Equal(o.Keys[i].Attr) {
			return false
		}
	}
	for i := range n.GroupBy {
		if !n.GroupBy[i].Equal(o.GroupBy[i]) {
			return false
		}
	}
	for i := range n.Aggs {
		a, b := n.Aggs[i], o.Aggs[i]
		if a.Func != b.Func || a.Star != b.Star || !a.Attr.Equal(b.Attr) || a.As != b.As {
			return false
		}
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits n and every descendant pre-order; returning false from fn
// prunes the subtree.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Scans returns every scan node in the tree, left to right.
func (n *Node) Scans() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Kind == OpScan {
			out = append(out, m)
		}
		return true
	})
	return out
}

// head renders the operator with its arguments, the form used both in
// plan printing and against rule heads.
func (n *Node) head() string {
	switch n.Kind {
	case OpScan:
		return fmt.Sprintf("scan(%s@%s)", n.Collection, n.Wrapper)
	case OpSelect:
		return fmt.Sprintf("select(%s)", n.Pred)
	case OpProject:
		return fmt.Sprintf("project(%s)", strings.Join(n.Cols, ", "))
	case OpSort:
		parts := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			parts[i] = k.String()
		}
		return fmt.Sprintf("sort(%s)", strings.Join(parts, ", "))
	case OpJoin:
		return fmt.Sprintf("join(%s)", n.Pred)
	case OpUnion:
		return "union"
	case OpDupElim:
		return "dupelim"
	case OpAggregate:
		parts := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			parts = append(parts, g.String())
		}
		for _, a := range n.Aggs {
			parts = append(parts, a.String())
		}
		return fmt.Sprintf("aggregate(%s)", strings.Join(parts, ", "))
	case OpSubmit:
		return fmt.Sprintf("submit(@%s)", n.Wrapper)
	default:
		return n.Kind.String()
	}
}

// String renders the plan as an indented tree.
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.head())
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}
