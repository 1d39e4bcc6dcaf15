package vexec

import "disco/internal/types"

// hashJoinOp is the equi-join breaker. The right child is the build side
// and the left the probe side, so output is left-major like the
// nested-loop join's. Two modes:
//
//   - in-memory: one chained table over the build rows (joinTable), the
//     build side taken uncopied, probe batches streamed through it —
//     fully pipelined on the probe side.
//   - Grace spill (build side exceeds Options.MemBytes): both sides
//     partition to disk by join-key hash, partitions join independently
//     (recursing with the next hash window when one is still over
//     budget), and outputs concatenate partition-major — a
//     multiset-identical permutation.
type hashJoinOp struct {
	left, right Op
	lpos, rpos  int
	pred        pairPred
	// equiOnly short-circuits candidate verification when the predicate
	// is exactly the hashed equi conjunct: Constant.Equal on the two key
	// positions is what the compiled slot would compute (Equal is
	// symmetric, so conjunct orientation does not matter), minus the
	// slot loop and side dispatch.
	equiOnly bool
	opts     Options
	stat     *NodeStat
	size     int

	started bool
	// streaming probe state (in-memory mode)
	streaming bool
	transient bool
	table     joinTable
	in        *Batch
	done      bool
	arena     arena
	// materialized output (spill mode)
	out    []types.Row
	pos    int
	spills []*spillSet
}

func (o *hashJoinOp) Open() error {
	o.in = getBatch(o.size)
	if err := o.left.Open(); err != nil {
		return err
	}
	return o.right.Open()
}

func (o *hashJoinOp) Next(b *Batch) (bool, error) {
	if err := o.start(); err != nil {
		return false, err
	}
	if o.streaming {
		return o.probeStream(b)
	}
	return emitSlice(o.out, &o.pos, o.size, b), nil
}

// rest hands over the spill mode's materialized output; the in-memory
// mode streams its probe side.
func (o *hashJoinOp) rest() ([]types.Row, bool, error) {
	if err := o.start(); err != nil || o.streaming {
		return nil, false, err
	}
	return restOf(o.out, &o.pos), true, nil
}

// start runs the build phase once.
func (o *hashJoinOp) start() error {
	if o.started {
		return nil
	}
	o.started = true
	return o.build()
}

func (o *hashJoinOp) Close() error {
	for _, s := range o.spills {
		s.cleanup()
	}
	o.spills = nil
	putBatch(o.in)
	o.in = nil
	err := o.left.Close()
	if err2 := o.right.Close(); err == nil {
		err = err2
	}
	return err
}

// build takes the build (right) side — as drainAll does when there is no
// budget, else batch by batch, switching to spill partitioning the moment
// the tracked bytes exceed the budget — then picks the probe mode.
func (o *hashJoinOp) build() error {
	budget := o.opts.MemBytes
	if budget <= 0 {
		rows, err := drainAll(o.right, o.size)
		if err != nil {
			return err
		}
		o.table = newJoinTable(rows, o.rpos)
		o.streaming = true
		return nil
	}
	b := getBatch(o.size)
	defer putBatch(b)
	var buildRows []types.Row
	var bytes int64
	var bset *spillSet
	for {
		ok, err := o.right.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if bset != nil {
			for _, r := range b.Rows {
				if err := bset.add(joinKeyHash(r[o.rpos]), r); err != nil {
					return err
				}
			}
			continue
		}
		buildRows = append(buildRows, b.Rows...)
		bytes += types.RowBytes(b.Rows)
		if bytes > budget {
			bset, err = newSpillSet(o.opts.SpillDir, 0)
			if err != nil {
				return err
			}
			o.spills = append(o.spills, bset)
			for _, r := range buildRows {
				if err := bset.add(joinKeyHash(r[o.rpos]), r); err != nil {
					return err
				}
			}
			buildRows = nil
		}
	}
	if bset != nil {
		o.stat.Spilled = true
		return o.spillJoin(bset)
	}
	o.table = newJoinTable(buildRows, o.rpos)
	o.streaming = true
	return nil
}

// match verifies one candidate pair from a hash bucket.
func (o *hashJoinOp) match(l, r types.Row) bool {
	if o.equiOnly {
		return l[o.lpos].Equal(r[o.rpos])
	}
	return o.pred.eval(l, r)
}

// probeStream pipelines probe batches through the in-memory table.
func (o *hashJoinOp) probeStream(b *Batch) (bool, error) {
	if o.transient {
		o.arena.reset()
	}
	out := b.own()
	for !o.done {
		ok, err := o.left.Next(o.in)
		if err != nil {
			return false, err
		}
		if !ok {
			o.done = true
			break
		}
		t := &o.table
		if o.equiOnly {
			for _, l := range o.in.Rows {
				lk := l[o.lpos]
				h := joinKeyHash(lk)
				for e := t.first(h); e != 0; e = t.next(e, h) {
					if r := t.rows[e-1]; lk.Equal(r[o.rpos]) {
						out = append(out, o.arena.concat(l, r))
					}
				}
			}
		} else {
			for _, l := range o.in.Rows {
				h := joinKeyHash(l[o.lpos])
				for e := t.first(h); e != 0; e = t.next(e, h) {
					if r := t.rows[e-1]; o.pred.eval(l, r) {
						out = append(out, o.arena.concat(l, r))
					}
				}
			}
		}
		if len(out) >= o.size/2 {
			b.emit(out)
			return true, nil
		}
	}
	b.emit(out)
	return len(out) > 0, nil
}

// spillJoin partitions the probe side to disk and joins partition pairs.
func (o *hashJoinOp) spillJoin(bset *spillSet) error {
	pset, err := newSpillSet(o.opts.SpillDir, 0)
	if err != nil {
		return err
	}
	o.spills = append(o.spills, pset)
	b := getBatch(o.size)
	defer putBatch(b)
	for {
		ok, err := o.left.Next(b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, l := range b.Rows {
			if err := pset.add(joinKeyHash(l[o.lpos]), l); err != nil {
				return err
			}
		}
	}
	for p := 0; p < spillFanout; p++ {
		if err := o.joinPartition(bset, pset, p); err != nil {
			return err
		}
	}
	return nil
}

// joinPartition joins one build/probe partition pair, repartitioning
// with the next hash window when the build partition alone still
// exceeds the budget.
func (o *hashJoinOp) joinPartition(bset, pset *spillSet, p int) error {
	build, err := bset.readAll(p)
	if err != nil {
		return err
	}
	level := bset.level
	if level+1 < maxSpillLevels && o.opts.MemBytes > 0 && types.RowBytes(build) > o.opts.MemBytes {
		bsub, err := newSpillSet(o.opts.SpillDir, level+1)
		if err != nil {
			return err
		}
		o.spills = append(o.spills, bsub)
		for _, r := range build {
			if err := bsub.add(joinKeyHash(r[o.rpos]), r); err != nil {
				return err
			}
		}
		build = nil
		psub, err := newSpillSet(o.opts.SpillDir, level+1)
		if err != nil {
			return err
		}
		o.spills = append(o.spills, psub)
		pr, err := pset.parts[p].startRead()
		if err != nil {
			return err
		}
		for {
			l, ok, err := pr.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := psub.add(joinKeyHash(l[o.lpos]), l); err != nil {
				return err
			}
		}
		for sp := 0; sp < spillFanout; sp++ {
			if err := o.joinPartition(bsub, psub, sp); err != nil {
				return err
			}
		}
		return nil
	}
	t := newJoinTable(build, o.rpos)
	pr, err := pset.parts[p].startRead()
	if err != nil {
		return err
	}
	for {
		l, ok, err := pr.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		h := joinKeyHash(l[o.lpos])
		for e := t.first(h); e != 0; e = t.next(e, h) {
			if r := t.rows[e-1]; o.match(l, r) {
				o.out = append(o.out, o.arena.concat(l, r))
			}
		}
	}
}
