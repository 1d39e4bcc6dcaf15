package algebra

import (
	"fmt"
	"strings"

	"disco/internal/types"
)

// SchemaSource supplies base-collection schemas during plan resolution;
// the mediator catalog implements it.
type SchemaSource interface {
	// CollectionSchema returns the row schema of a collection at a
	// wrapper.
	CollectionSchema(wrapper, collection string) (*types.Schema, error)
}

// Resolve computes and stores the output schema of every node in the plan,
// bottom-up, validating attribute references along the way. It must be run
// before execution and before cost estimation (estimation uses attribute
// positions for statistics lookups).
//
// Resolve is idempotent: a node with an output schema is skipped, subtree
// included. The optimizer relies on this — candidate plans share resolved
// subplans, and re-resolution must neither reallocate their schemas nor
// write to nodes other goroutines are reading. The flip side is an
// invariant on callers: structurally mutating a resolved node requires
// clearing its OutSchema (and its ancestors') before resolving again.
func Resolve(n *Node, src SchemaSource) error {
	if n == nil {
		return fmt.Errorf("algebra: resolve of nil plan")
	}
	if n.OutSchema != nil {
		return nil
	}
	for _, c := range n.Children {
		if err := Resolve(c, src); err != nil {
			return err
		}
	}
	switch n.Kind {
	case OpScan:
		s, err := src.CollectionSchema(n.Wrapper, n.Collection)
		if err != nil {
			return fmt.Errorf("algebra: scan %s@%s: %w", n.Collection, n.Wrapper, err)
		}
		n.OutSchema = s

	case OpSelect:
		child := n.Children[0].OutSchema
		for _, c := range n.Pred.SelectionComparisons() {
			if !lookupRef(child, c.Left) {
				return fmt.Errorf("algebra: select references unknown attribute %s in %s", c.Left, child)
			}
		}
		for _, c := range n.Pred.JoinComparisons() {
			if !lookupRef(child, c.Left) || !lookupRef(child, *c.RightAttr) {
				return fmt.Errorf("algebra: select references unknown attribute in %s", c)
			}
		}
		n.OutSchema = child

	case OpProject:
		child := n.Children[0].OutSchema
		fields := make([]types.Field, len(n.Cols))
		for i, col := range n.Cols {
			pos, ok := ColIndex(child, col)
			if !ok {
				return fmt.Errorf("algebra: projection column %q not in %s", col, child)
			}
			fields[i] = child.Field(pos)
		}
		n.OutSchema = types.NewSchema(fields...)

	case OpSort:
		child := n.Children[0].OutSchema
		for _, k := range n.Keys {
			if !lookupRef(child, k.Attr) {
				return fmt.Errorf("algebra: sort key %s not in %s", k.Attr, child)
			}
		}
		n.OutSchema = child

	case OpJoin:
		if err := CheckJoin(n); err != nil {
			return err
		}
		n.OutSchema = n.Children[0].OutSchema.Concat(n.Children[1].OutSchema)

	case OpUnion:
		l, r := n.Children[0].OutSchema, n.Children[1].OutSchema
		if l.Len() != r.Len() {
			return fmt.Errorf("algebra: union arity mismatch: %d vs %d", l.Len(), r.Len())
		}
		n.OutSchema = l

	case OpDupElim, OpSubmit:
		n.OutSchema = n.Children[0].OutSchema

	case OpAggregate:
		child := n.Children[0].OutSchema
		fields := make([]types.Field, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			i, ok := RefIndex(child, g)
			if !ok {
				return fmt.Errorf("algebra: group-by attribute %s not in %s", g, child)
			}
			fields = append(fields, child.Field(i))
		}
		for _, a := range n.Aggs {
			name := a.As
			if name == "" {
				name = a.String()
			}
			ty := types.KindFloat
			if a.Func == AggCount {
				ty = types.KindInt
			}
			if (a.Func == AggMin || a.Func == AggMax) && !a.Star {
				if i, ok := RefIndex(child, a.Attr); ok {
					ty = child.Field(i).Type
				}
			}
			if !a.Star {
				if _, ok := RefIndex(child, a.Attr); !ok {
					return fmt.Errorf("algebra: aggregate attribute %s not in %s", a.Attr, child)
				}
			}
			fields = append(fields, types.Field{Name: name, Type: ty})
		}
		n.OutSchema = types.NewSchema(fields...)

	default:
		return fmt.Errorf("algebra: cannot resolve operator %s", n.Kind)
	}
	return nil
}

// CheckJoin validates a join whose inputs are resolved: every join
// conjunct must resolve in the concatenation of the inputs' schemas, as
// Resolve requires. It builds no schema and leaves the node unresolved,
// so the plan search checks a candidate join without concatenating the
// schema of every candidate it prices; Resolve builds schemas for the
// plans it keeps.
func CheckJoin(n *Node) error {
	l, r := n.Children[0].OutSchema, n.Children[1].OutSchema
	if n.Pred == nil {
		return nil
	}
	for _, c := range n.Pred.Conjuncts {
		if !c.IsJoin() {
			continue
		}
		if _, ok := refIndex2(l, r, c.Left); !ok {
			return fmt.Errorf("algebra: join predicate %s not resolvable in %s", c, l.Concat(r))
		}
		if _, ok := refIndex2(l, r, *c.RightAttr); !ok {
			return fmt.Errorf("algebra: join predicate %s not resolvable in %s", c, l.Concat(r))
		}
	}
	return nil
}

// Width reports the number of columns a node produces: its schema's
// length once resolved. A join CheckJoin accepted but Resolve has not
// built a schema for is as wide as its inputs together, and a submit of
// one as wide as its input; any other unresolved node has no known width.
func Width(n *Node) (int, bool) {
	if n.OutSchema != nil {
		return n.OutSchema.Len(), true
	}
	switch n.Kind {
	case OpJoin:
		l, lok := Width(n.Children[0])
		r, rok := Width(n.Children[1])
		return l + r, lok && rok
	case OpSubmit:
		return Width(n.Children[0])
	}
	return 0, false
}

func lookupRef(s *types.Schema, r Ref) bool {
	_, ok := RefIndex(s, r)
	return ok
}

// RefIndex resolves an attribute reference to its position in a schema,
// case-insensitively; Resolve, the executor and Predicate.Eval all
// resolve through it. A qualified reference matches the field of that
// collection and name, else a field of that name that has no collection
// (a derived column); it never matches a field of another collection. A
// bare reference matches any field of that name, and is ambiguous — not
// found — when the matches come from two collections. Among several
// matches the last field wins.
func RefIndex(s *types.Schema, r Ref) (int, bool) { return refIndex2(s, nil, r) }

// refIndex2 is RefIndex over the concatenation of a and b (b may be nil),
// without building it.
func refIndex2(a, b *types.Schema, r Ref) (int, bool) {
	na := a.Len()
	n := na
	if b != nil {
		n += b.Len()
	}
	found, from := -1, ""
	for i := n - 1; i >= 0; i-- {
		var f types.Field
		if i >= na {
			f = b.Field(i - na)
		} else {
			f = a.Field(i)
		}
		if !strings.EqualFold(f.Name, r.Attr) {
			continue
		}
		if r.Collection != "" {
			if strings.EqualFold(f.Collection, r.Collection) {
				return i, true
			}
			if f.Collection == "" && found < 0 {
				found = i
			}
			continue
		}
		if f.Collection != "" {
			if from != "" && !strings.EqualFold(from, f.Collection) {
				return -1, false
			}
			from = f.Collection
		}
		if found < 0 {
			found = i
		}
	}
	return found, found >= 0
}

// ColIndex resolves a projection column, written rel.col or bare, by
// RefIndex's rule. A name that is not a qualified reference to a field,
// such as an aggregate's "sum(T.x)", matches the field of that name.
func ColIndex(s *types.Schema, col string) (int, bool) {
	if coll, attr, ok := strings.Cut(col, "."); ok {
		if i, ok := RefIndex(s, Ref{Collection: coll, Attr: attr}); ok {
			return i, true
		}
	}
	return RefIndex(s, Ref{Attr: col})
}

// FixedSchemas is a SchemaSource backed by a map keyed "wrapper/collection";
// tests and single-wrapper tools use it.
type FixedSchemas map[string]*types.Schema

// CollectionSchema implements SchemaSource.
func (f FixedSchemas) CollectionSchema(wrapper, collection string) (*types.Schema, error) {
	if s, ok := f[wrapper+"/"+collection]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown collection %s@%s", collection, wrapper)
}
