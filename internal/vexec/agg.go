package vexec

import (
	"fmt"

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
		o.out = append(o.out, renderGroups(f.order, o.aggs)...)
	}
	return nil
}

// foldGroup is one group under accumulation.
type foldGroup struct {
	key    types.Row
	states []aggState
}

// foldState is the grouping accumulation loop: groups keyed by the exact
// key encoding, kept in first-seen order, each folding its values in
// input order.
type foldState struct {
	gpos, apos []int
	aggs       []algebra.AggSpec
	groups     map[string]*foldGroup
	order      []*foldGroup
	enc        keyEnc
}

func newFoldState(schema *types.Schema, groupBy []algebra.Ref, aggs []algebra.AggSpec) (*foldState, error) {
	f := &foldState{
		gpos:   make([]int, len(groupBy)),
		apos:   make([]int, len(aggs)),
		aggs:   aggs,
		groups: make(map[string]*foldGroup),
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

// keyHash encodes the row's grouping values and hashes them (the spill
// distribution key).
func (f *foldState) keyHash(r types.Row) uint64 {
	f.enc.reset()
	for _, p := range f.gpos {
		f.enc.constant(r[p])
	}
	return fnvBytes(f.enc.buf)
}

// add folds one row.
func (f *foldState) add(r types.Row) {
	f.enc.reset()
	for _, p := range f.gpos {
		f.enc.constant(r[p])
	}
	g, ok := f.groups[string(f.enc.buf)]
	if !ok {
		key := make(types.Row, len(f.gpos))
		for i, p := range f.gpos {
			key[i] = r[p]
		}
		g = &foldGroup{key: key, states: newAggStates(f.aggs)}
		f.groups[string(f.enc.buf)] = g
		f.order = append(f.order, g)
	}
	for i := range f.aggs {
		v := types.Null
		if f.apos[i] >= 0 {
			v = r[f.apos[i]]
		}
		g.states[i].Add(v)
	}
}

// finish renders the groups in first-seen order, including the
// zero-group row an ungrouped aggregate over empty input produces.
func (f *foldState) finish() []types.Row {
	if len(f.gpos) == 0 && len(f.order) == 0 {
		f.order = append(f.order, &foldGroup{key: types.Row{}, states: newAggStates(f.aggs)})
	}
	return renderGroups(f.order, f.aggs)
}

func renderGroups(groups []*foldGroup, aggs []algebra.AggSpec) []types.Row {
	out := make([]types.Row, 0, len(groups))
	for _, g := range groups {
		row := append(types.Row(nil), g.key...)
		for i := range aggs {
			row = append(row, g.states[i].Result())
		}
		out = append(out, row)
	}
	return out
}

// aggState accumulates one aggregate function. Accumulation order
// matters for the float sum (addition is not associative), so callers
// needing bit-exact results must feed rows in input order.
type aggState struct {
	fn    algebra.AggFunc
	count int64
	sum   float64
	min   types.Constant
	max   types.Constant
}

// newAggStates builds one fresh accumulator per aggregate spec.
func newAggStates(aggs []algebra.AggSpec) []aggState {
	out := make([]aggState, len(aggs))
	for i, a := range aggs {
		out[i] = aggState{fn: a.Func, min: types.Null, max: types.Null}
	}
	return out
}

// Add folds one value into the accumulator. Only the fields the
// function's Result reads are maintained — the extrema comparisons are
// the expensive part, and a COUNT/SUM accumulator never looks at them.
func (s *aggState) Add(v types.Constant) {
	switch s.fn {
	case algebra.AggCount:
		s.count++
	case algebra.AggSum:
		s.sum += v.AsFloat()
	case algebra.AggAvg:
		s.count++
		s.sum += v.AsFloat()
	case algebra.AggMin:
		if s.min.IsNull() || v.Less(s.min) {
			s.min = v
		}
	case algebra.AggMax:
		if s.max.IsNull() || s.max.Less(v) {
			s.max = v
		}
	}
}

// Result finalizes the accumulator into the aggregate's value.
func (s *aggState) Result() types.Constant {
	switch s.fn {
	case algebra.AggCount:
		return types.Int(s.count)
	case algebra.AggSum:
		return types.Float(s.sum)
	case algebra.AggAvg:
		if s.count == 0 {
			return types.Null
		}
		return types.Float(s.sum / float64(s.count))
	case algebra.AggMin:
		return s.min
	case algebra.AggMax:
		return s.max
	default:
		return types.Null
	}
}
