// Package refeval is the naive plan evaluator the execution tests compare
// the vectorized engine against. It materializes every operator's whole
// output with the most direct algorithm there is — interpreted predicates,
// nested-loop joins only, string map keys — and shares no kernel with
// internal/vexec, so agreement between the two is evidence about both.
// Output order is the order vexec's determinism contract promises:
// left-major joins, stable sorts, first-seen groups and duplicates.
// Nothing outside _test files imports it.
package refeval

import (
	"fmt"
	"sort"

	"disco/internal/algebra"
	"disco/internal/types"
)

// Leaf supplies the rows of nodes the evaluator does not compute itself
// (scans, submits); ok=false leaves the node to the evaluator.
type Leaf func(n *algebra.Node) (rows []types.Row, ok bool, err error)

// Eval evaluates a resolved plan. visit, when non-nil, observes every
// evaluated node's output in post-order.
func Eval(n *algebra.Node, leaf Leaf, visit func(n *algebra.Node, out []types.Row)) ([]types.Row, error) {
	out, err := eval(n, leaf, visit)
	if err == nil && visit != nil {
		visit(n, out)
	}
	return out, err
}

func eval(n *algebra.Node, leaf Leaf, visit func(*algebra.Node, []types.Row)) ([]types.Row, error) {
	if rows, ok, err := leaf(n); err != nil || ok {
		return rows, err
	}
	in := make([][]types.Row, len(n.Children))
	for i, c := range n.Children {
		rows, err := Eval(c, leaf, visit)
		if err != nil {
			return nil, err
		}
		in[i] = rows
	}
	switch n.Kind {
	case algebra.OpSelect:
		var out []types.Row
		for _, r := range in[0] {
			if n.Pred.Eval(n.OutSchema, r) {
				out = append(out, r)
			}
		}
		return out, nil

	case algebra.OpProject:
		schema := n.Children[0].OutSchema
		idx := make([]int, len(n.Cols))
		for i, col := range n.Cols {
			pos, ok := algebra.ColIndex(schema, col)
			if !ok {
				return nil, fmt.Errorf("refeval: unknown projection column %q", col)
			}
			idx[i] = pos
		}
		out := make([]types.Row, len(in[0]))
		for ri, r := range in[0] {
			out[ri] = make(types.Row, len(idx))
			for i, pos := range idx {
				out[ri][i] = r[pos]
			}
		}
		return out, nil

	case algebra.OpSort:
		pos, err := refPositions(n.OutSchema, keyRefs(n.Keys), "sort key")
		if err != nil {
			return nil, err
		}
		out := append([]types.Row(nil), in[0]...)
		sort.SliceStable(out, func(a, b int) bool {
			for i, p := range pos {
				c := out[a][p].Compare(out[b][p])
				if n.Keys[i].Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		return out, nil

	case algebra.OpDupElim:
		seen := make(map[string]bool)
		var out []types.Row
		for _, r := range in[0] {
			if k := r.Key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, nil

	case algebra.OpAggregate:
		return aggregate(n, in[0])

	case algebra.OpUnion:
		return append(append([]types.Row(nil), in[0]...), in[1]...), nil

	case algebra.OpJoin:
		var out []types.Row
		for _, l := range in[0] {
			for _, r := range in[1] {
				if row := l.Concat(r); n.Pred.Eval(n.OutSchema, row) {
					out = append(out, row)
				}
			}
		}
		return out, nil

	default:
		return nil, fmt.Errorf("refeval: cannot evaluate %s", n.Kind)
	}
}

func keyRefs(keys []algebra.SortKey) []algebra.Ref {
	refs := make([]algebra.Ref, len(keys))
	for i, k := range keys {
		refs[i] = k.Attr
	}
	return refs
}

func refPositions(schema *types.Schema, refs []algebra.Ref, what string) ([]int, error) {
	pos := make([]int, len(refs))
	for i, r := range refs {
		p, ok := algebra.RefIndex(schema, r)
		if !ok {
			return nil, fmt.Errorf("refeval: unknown %s %s", what, r)
		}
		pos[i] = p
	}
	return pos, nil
}

// aggregate groups rows in first-seen order and folds each group's values
// in input order (float sums are not associative). With no grouping
// attributes it yields exactly one row, even over an empty input.
func aggregate(n *algebra.Node, rows []types.Row) ([]types.Row, error) {
	schema := n.Children[0].OutSchema
	gpos, err := refPositions(schema, n.GroupBy, "group-by attribute")
	if err != nil {
		return nil, err
	}
	var order []string
	groups := make(map[string][]types.Row)
	for _, r := range rows {
		key := make(types.Row, len(gpos))
		for i, p := range gpos {
			key[i] = r[p]
		}
		k := key.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	if len(gpos) == 0 && len(order) == 0 {
		order = append(order, "")
	}
	out := make([]types.Row, 0, len(order))
	for _, k := range order {
		members := groups[k]
		var row types.Row
		if len(members) > 0 {
			for _, p := range gpos {
				row = append(row, members[0][p])
			}
		}
		for _, a := range n.Aggs {
			apos := -1
			if !a.Star {
				p, ok := algebra.RefIndex(schema, a.Attr)
				if !ok {
					return nil, fmt.Errorf("refeval: unknown aggregate attribute %s", a.Attr)
				}
				apos = p
			}
			row = append(row, fold(a.Func, members, apos))
		}
		out = append(out, row)
	}
	return out, nil
}

// fold computes one aggregate over a group's rows; pos < 0 is COUNT(*).
func fold(fn algebra.AggFunc, rows []types.Row, pos int) types.Constant {
	sum, best := 0.0, types.Null
	for _, r := range rows {
		if pos < 0 {
			continue
		}
		v := r[pos]
		sum += v.AsFloat()
		if best.IsNull() || (fn == algebra.AggMin && v.Less(best)) || (fn == algebra.AggMax && best.Less(v)) {
			best = v
		}
	}
	switch fn {
	case algebra.AggCount:
		return types.Int(int64(len(rows)))
	case algebra.AggSum:
		return types.Float(sum)
	case algebra.AggAvg:
		if len(rows) == 0 {
			return types.Null
		}
		return types.Float(sum / float64(len(rows)))
	case algebra.AggMin, algebra.AggMax:
		return best
	}
	return types.Null
}
