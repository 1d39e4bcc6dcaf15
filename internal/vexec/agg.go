package vexec

import (
	"fmt"
	"slices"

	"disco/internal/algebra"
	"disco/internal/types"
)

// aggOp is the grouping/aggregation breaker. Because float sums are not
// associative, every mode accumulates each group's values in exact input
// order (never via merged partial states), so aggregate values are
// bit-identical in all modes:
//
//   - no grouping attributes: a single accumulator folded streamingly —
//     O(1) state, never spills, fully pipelined.
//   - in-memory: streaming fold into the group table (grouped output in
//     first-seen order).
//   - Grace spill (input exceeds Options.MemBytes): raw input rows
//     partition to disk by group-key hash (a group never straddles
//     partitions), each partition folds in input order, outputs
//     concatenate partition-major (multiset-identical order, bit-exact
//     values).
type aggOp struct {
	child    Op
	inSchema *types.Schema
	groupBy  []algebra.Ref
	aggs     []algebra.AggSpec
	opts     Options
	stat     *NodeStat
	size     int

	started bool
	out     []types.Row
	pos     int
	spills  []*spillSet
}

func (o *aggOp) Open() error { return o.child.Open() }

func (o *aggOp) Next(b *Batch) (bool, error) {
	if err := o.start(); err != nil {
		return false, err
	}
	return emitSlice(o.out, &o.pos, o.size, b), nil
}

func (o *aggOp) rest() ([]types.Row, bool, error) {
	if err := o.start(); err != nil {
		return nil, false, err
	}
	return restOf(o.out, &o.pos), true, nil
}

// start runs the build phase once.
func (o *aggOp) start() error {
	if o.started {
		return nil
	}
	o.started = true
	return o.build()
}

func (o *aggOp) Close() error {
	for _, s := range o.spills {
		s.cleanup()
	}
	o.spills = nil
	return o.child.Close()
}

func (o *aggOp) build() error {
	fold, err := newFoldState(o.inSchema, o.groupBy, o.aggs)
	if err != nil {
		return err
	}
	b := getBatch(o.size)
	defer putBatch(b)
	budget := o.opts.MemBytes

	// Pure streaming: no grouping attributes (a single O(1) accumulator
	// never spills), or no budget to enforce.
	if len(o.groupBy) == 0 || budget <= 0 {
		for {
			ok, err := o.child.Next(b)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			for _, r := range b.Rows {
				fold.add(r)
			}
		}
		o.out = fold.finish()
		return nil
	}

	// Materialize the input, tracking bytes against the budget; the
	// moment it exceeds, redistribute everything into spill partitions
	// keyed by group hash and keep draining straight to disk.
	var rows []types.Row
	var bytes int64
	var sset *spillSet
	for {
		ok, err := o.child.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if sset != nil {
			for _, r := range b.Rows {
				if err := sset.add(fold.keyHash(r), r); err != nil {
					return err
				}
			}
			continue
		}
		rows = append(rows, b.Rows...)
		bytes += types.RowBytes(b.Rows)
		if bytes > budget {
			sset, err = newSpillSet(o.opts.SpillDir, 0)
			if err != nil {
				return err
			}
			o.spills = append(o.spills, sset)
			for _, r := range rows {
				if err := sset.add(fold.keyHash(r), r); err != nil {
					return err
				}
			}
			rows = nil
		}
	}
	if sset != nil {
		o.stat.Spilled = true
		return o.spillAgg(sset)
	}
	for _, r := range rows {
		fold.add(r)
	}
	o.out = fold.finish()
	return nil
}

// spillAgg folds each disk partition independently, in partition order.
func (o *aggOp) spillAgg(sset *spillSet) error {
	for p := 0; p < spillFanout; p++ {
		sr, err := sset.parts[p].startRead()
		if err != nil {
			return err
		}
		f, err := newFoldState(o.inSchema, o.groupBy, o.aggs)
		if err != nil {
			return err
		}
		for {
			r, ok, err := sr.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			f.add(r)
		}
		o.out = append(o.out, f.finish()...)
	}
	return nil
}

// foldState is the grouping accumulation loop. A keyTable gives each
// group a dense id in first-seen order; the group's output row, carved
// from slabs when it is first seen, holds its key in front and its
// aggregate values behind, finalised in place. Each group folds its
// values in input order.
type foldState struct {
	gpos, apos []int
	aggs       []algebra.AggSpec
	groups     keyTable
	states     []aggState // len(aggs) accumulators per group, by group id
	slab       arena
}

func newFoldState(schema *types.Schema, groupBy []algebra.Ref, aggs []algebra.AggSpec) (*foldState, error) {
	f := &foldState{
		gpos: make([]int, len(groupBy)),
		apos: make([]int, len(aggs)),
		aggs: aggs,
	}
	for i, g := range groupBy {
		pos, ok := algebra.RefIndex(schema, g)
		if !ok {
			return nil, fmt.Errorf("vexec: unknown group-by attribute %s", g)
		}
		f.gpos[i] = pos
	}
	for i, a := range aggs {
		if a.Star {
			f.apos[i] = -1
			continue
		}
		pos, ok := algebra.RefIndex(schema, a.Attr)
		if !ok {
			return nil, fmt.Errorf("vexec: unknown aggregate attribute %s", a.Attr)
		}
		f.apos[i] = pos
	}
	return f, nil
}

// keyHash is the row's group-key hash, the spill distribution key.
func (f *foldState) keyHash(r types.Row) uint64 { return rowKeyHash(r, f.gpos) }

// add folds one row.
func (f *foldState) add(r types.Row) {
	h := rowKeyHash(r, f.gpos)
	g, slot := f.groups.find(r, f.gpos, h)
	if g < 0 {
		g = f.newGroup(slot, h, r)
	}
	row := f.groups.key(g)[len(f.gpos):]
	states := f.state(g)
	for i, a := range f.aggs {
		v := types.Null
		if f.apos[i] >= 0 {
			v = r[f.apos[i]]
		}
		states[i].add(a.Func, v, &row[i])
	}
}

// state returns group g's accumulators.
func (f *foldState) state(g int) []aggState {
	n := len(f.aggs)
	return f.states[g*n : (g+1)*n]
}

// newGroup adds r's key as a group with fresh accumulators.
func (f *foldState) newGroup(slot uint32, h uint64, r types.Row) int {
	row := f.slab.alloc(len(f.gpos) + len(f.aggs))
	for i, p := range f.gpos {
		row[i] = r[p]
	}
	clear(row[len(f.gpos):])
	n := len(f.aggs)
	if len(f.states)+n > cap(f.states) {
		// Double, where append would grow a large slice by a quarter.
		f.states = slices.Grow(f.states, len(f.states)+n)
	}
	f.states = append(f.states, make([]aggState, n)...)
	return f.groups.add(slot, h, row)
}

// finish finalises each group's aggregate values in its row and returns
// the rows in first-seen order, including the zero-group row an
// ungrouped aggregate over empty input produces.
func (f *foldState) finish() []types.Row {
	if len(f.gpos) == 0 && f.groups.len() == 0 {
		h := rowKeyHash(nil, f.gpos)
		_, slot := f.groups.find(nil, f.gpos, h)
		f.newGroup(slot, h, nil)
	}
	rows := f.groups.release(true)
	k := len(f.gpos)
	for g, row := range rows {
		states := f.state(g)
		for i, a := range f.aggs {
			states[i].finish(a.Func, &row[k+i])
		}
	}
	return rows
}

// aggState accumulates one aggregate function into the output value it
// finalises. Accumulation order matters for the float sum (addition is not
// associative), so callers needing bit-exact results must feed rows in
// input order. The zero value, with a Null output value, is a fresh
// accumulator.
type aggState struct {
	count int64
	sum   float64
}

// add folds one value. Only what the function's result reads is
// maintained — the extrema comparisons are the expensive part, and a
// COUNT/SUM accumulator never looks at them. MIN and MAX keep the
// extremum so far in out itself (Null before any value).
func (s *aggState) add(fn algebra.AggFunc, v types.Constant, out *types.Constant) {
	switch fn {
	case algebra.AggCount:
		s.count++
	case algebra.AggSum:
		s.sum += v.AsFloat()
	case algebra.AggAvg:
		s.count++
		s.sum += v.AsFloat()
	case algebra.AggMin:
		if out.IsNull() || v.Less(*out) {
			*out = v
		}
	case algebra.AggMax:
		if out.IsNull() || out.Less(v) {
			*out = v
		}
	}
}

// finish writes the aggregate's value into out.
func (s *aggState) finish(fn algebra.AggFunc, out *types.Constant) {
	switch fn {
	case algebra.AggCount:
		*out = types.Int(s.count)
	case algebra.AggSum:
		*out = types.Float(s.sum)
	case algebra.AggAvg:
		if s.count == 0 {
			*out = types.Null
		} else {
			*out = types.Float(s.sum / float64(s.count))
		}
	case algebra.AggMin, algebra.AggMax:
	default:
		*out = types.Null
	}
}
