package vexec

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/types"
)

// NodeStat is what one operator reports back to the caller after the
// pipeline drains: the engine's analytic clock charging and EXPLAIN
// ANALYZE profiles are computed entirely from these.
type NodeStat struct {
	// Out counts the rows the operator emitted.
	Out int64
	// HashJoin reports a join executed as a hash join (vs nested loops).
	HashJoin bool
	// Spilled reports a breaker that Grace-partitioned to disk.
	Spilled bool
}

// Counts collects per-node stats for one execution.
type Counts map[*algebra.Node]*NodeStat

// Out returns the emitted row count of a node (0 if never executed).
func (c Counts) Out(n *algebra.Node) int64 {
	if s := c[n]; s != nil {
		return s.Out
	}
	return 0
}

// Stat returns the node's stat entry, creating it on first use.
func (c Counts) Stat(n *algebra.Node) *NodeStat {
	if s := c[n]; s != nil {
		return s
	}
	s := &NodeStat{}
	c[n] = s
	return s
}

// Env is the host context a pipeline builds against: execution options,
// the stats sink, and the Leaf hook through which the host supplies
// rows for the nodes it owns (the engine materializes submit subtrees
// through its wrappers; the wrapper-side evaluator serves scans and
// index-backed selections from its store).
type Env struct {
	Opts Options
	// Counts, when non-nil, receives per-node row counts and execution
	// facts. Safe to leave nil (the wrapper does).
	Counts Counts
	// Leaf, when non-nil, is consulted for every node before generic
	// operator construction: handled=true short-circuits the node (and
	// its whole subtree) into a materialized source of the given rows.
	// An error aborts the build. The rows are not copied — they may be a
	// store's own, and a bare source root's answer is that very slice —
	// so the pipeline and whoever receives its answer treat them as
	// read-only.
	Leaf func(n *algebra.Node) (rows []types.Row, handled bool, err error)
}

func (e *Env) stat(n *algebra.Node) *NodeStat {
	if e.Counts == nil {
		return &NodeStat{}
	}
	return e.Counts.Stat(n)
}

// Build compiles a resolved algebra tree into a batch pipeline. Leaf
// hooks run during Build (materializing submits/scans up front); the
// operator pipeline itself runs when the returned Op is pulled.
func Build(n *algebra.Node, env *Env) (Op, error) {
	op, err := env.build(n)
	if err != nil {
		return nil, err
	}
	return op, nil
}

// Run builds and drains a plan in one call.
func Run(n *algebra.Node, env *Env) ([]types.Row, error) {
	op, err := Build(n, env)
	if err != nil {
		return nil, err
	}
	return Drain(op, env.Opts.batchSize())
}

func (e *Env) build(n *algebra.Node) (Op, error) {
	if n.OutSchema == nil {
		return nil, fmt.Errorf("vexec: unresolved plan node %s", n.Kind)
	}
	size := e.Opts.batchSize()
	if e.Leaf != nil {
		rows, handled, err := e.Leaf(n)
		if err != nil {
			return nil, err
		}
		if handled {
			return e.count(n, newSource(rows, size)), nil
		}
	}
	switch n.Kind {
	case algebra.OpSelect:
		child, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		return e.count(n, &filterOp{child: child, pred: compilePred(n.OutSchema, n.Pred), size: size}), nil

	case algebra.OpProject:
		child, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		idx, err := projectIndex(n.Children[0].OutSchema, n.Cols)
		if err != nil {
			return nil, err
		}
		return e.count(n, &projectOp{child: child, idx: idx, size: size}), nil

	case algebra.OpSort:
		child, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		return e.count(n, &sortOp{child: child, schema: n.OutSchema, keys: n.Keys, size: size}), nil

	case algebra.OpDupElim:
		child, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		pos := make([]int, n.OutSchema.Len())
		for i := range pos {
			pos[i] = i
		}
		return e.count(n, &dupElimOp{child: child, pos: pos, size: size}), nil

	case algebra.OpAggregate:
		child, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		// A streaming-mode aggregate folds every row the moment it arrives
		// and never retains input storage, so an arena-producing child may
		// recycle its slab batch-to-batch instead of growing the heap.
		// The budgeted mode materializes the input first and must keep
		// the default keep-everything arena discipline.
		if len(n.GroupBy) == 0 || e.Opts.MemBytes <= 0 {
			markTransient(child)
		}
		return e.count(n, &aggOp{child: child, inSchema: n.Children[0].OutSchema,
			groupBy: n.GroupBy, aggs: n.Aggs, opts: e.Opts, stat: e.stat(n), size: size}), nil

	case algebra.OpUnion:
		left, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := e.build(n.Children[1])
		if err != nil {
			return nil, err
		}
		return e.count(n, &unionOp{left: left, right: right}), nil

	case algebra.OpJoin:
		left, err := e.build(n.Children[0])
		if err != nil {
			return nil, err
		}
		right, err := e.build(n.Children[1])
		if err != nil {
			return nil, err
		}
		ls, rs := n.Children[0].OutSchema, n.Children[1].OutSchema
		pred := compilePairPred(n.OutSchema, ls.Len(), n.Pred)
		if lpos, rpos, ok := equiJoinCols(ls, rs, n.Pred); ok {
			stat := e.stat(n)
			stat.HashJoin = true
			return e.count(n, &hashJoinOp{left: left, right: right, lpos: lpos, rpos: rpos,
				pred: pred, equiOnly: len(n.Pred.Conjuncts) == 1,
				opts: e.Opts, stat: stat, size: size}), nil
		}
		return e.count(n, &nljOp{left: left, right: right, pred: pred, size: size}), nil

	default:
		return nil, fmt.Errorf("vexec: cannot execute operator %s", n.Kind)
	}
}

// markTransient tells a direct arena-producing child that its consumer
// never retains row storage past the next pull, enabling slab recycling.
// It deliberately does NOT descend through pass-through operators like
// filter: a filter accumulates aliased rows across several child pulls
// inside one of its own Next calls, so its child's storage must survive
// pulls even when the filter's consumer is transient-safe.
func markTransient(op Op) {
	if c, ok := op.(*countOp); ok {
		op = c.Op
	}
	switch t := op.(type) {
	case *hashJoinOp:
		t.transient = true
	case *nljOp:
		t.transient = true
	case *projectOp:
		t.transient = true
	}
}

// count wraps an operator so its emitted rows accumulate into the node's
// stat entry.
func (e *Env) count(n *algebra.Node, op Op) Op {
	if e.Counts == nil {
		return op
	}
	return &countOp{Op: op, stat: e.Counts.Stat(n)}
}

type countOp struct {
	Op
	stat *NodeStat
}

func (c *countOp) Next(b *Batch) (bool, error) {
	ok, err := c.Op.Next(b)
	if ok {
		c.stat.Out += int64(len(b.Rows))
	}
	return ok, err
}

func (c *countOp) rest() ([]types.Row, bool, error) {
	m, ok := c.Op.(materialized)
	if !ok {
		return nil, false, nil
	}
	rows, ok, err := m.rest()
	c.stat.Out += int64(len(rows))
	return rows, ok, err
}

// projectIndex resolves projection columns to row positions via
// algebra.ColIndex.
func projectIndex(schema *types.Schema, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := algebra.ColIndex(schema, c)
		if !ok {
			return nil, fmt.Errorf("vexec: unknown projection column %q", c)
		}
		idx[i] = pos
	}
	return idx, nil
}

// equiJoinCols finds the first `=` conjunct joining an attribute of
// leftSchema to one of rightSchema (either writing orientation) and
// returns the two resolved positions. ok=false means the predicate has
// no usable equi-join conjunct and the join runs as nested loops.
func equiJoinCols(leftSchema, rightSchema *types.Schema, pred *algebra.Predicate) (lpos, rpos int, ok bool) {
	for _, c := range pred.JoinComparisons() {
		if c.Op.String() != "=" {
			continue
		}
		lp, lok := algebra.RefIndex(leftSchema, c.Left)
		rp, rok := algebra.RefIndex(rightSchema, *c.RightAttr)
		if lok && rok {
			return lp, rp, true
		}
		// The conjunct may be written right-to-left.
		lp, lok = algebra.RefIndex(leftSchema, *c.RightAttr)
		rp, rok = algebra.RefIndex(rightSchema, c.Left)
		if lok && rok {
			return lp, rp, true
		}
	}
	return -1, -1, false
}
