package vexec

import "disco/internal/types"

// sourceOp streams a materialized row set (a wrapper answer, a cached
// result, a store scan) in batches. Batches alias the underlying slice
// — no copying.
type sourceOp struct {
	rows []types.Row
	size int
	pos  int
}

func newSource(rows []types.Row, size int) *sourceOp {
	return &sourceOp{rows: rows, size: size}
}

func (s *sourceOp) Open() error { return nil }

func (s *sourceOp) Next(b *Batch) (bool, error) {
	if s.pos >= len(s.rows) {
		b.Rows = nil
		return false, nil
	}
	n := len(s.rows) - s.pos
	if n > s.size {
		n = s.size
	}
	b.Rows = s.rows[s.pos : s.pos+n]
	s.pos += n
	return true, nil
}

func (s *sourceOp) rest() ([]types.Row, bool, error) { return restOf(s.rows, &s.pos), true, nil }

func (s *sourceOp) Close() error { return nil }

// filterOp pipelines a compiled predicate over its child's batches. It
// keeps pulling until the output batch is at least half full (selective
// predicates would otherwise trickle tiny batches downstream).
type filterOp struct {
	child Op
	pred  compiledPred
	size  int
	in    *Batch
	done  bool
}

func (f *filterOp) Open() error {
	f.in = getBatch(f.size)
	return f.child.Open()
}

func (f *filterOp) Next(b *Batch) (bool, error) {
	if f.pred.trivial() {
		return f.child.Next(b)
	}
	out := b.own()
	for !f.done {
		ok, err := f.child.Next(f.in)
		if err != nil {
			return false, err
		}
		if !ok {
			f.done = true
			break
		}
		if f.pred.alwaysFalse {
			continue
		}
		for _, r := range f.in.Rows {
			if f.pred.eval(r) {
				out = append(out, r)
			}
		}
		if len(out) >= f.size/2 {
			b.emit(out)
			return true, nil
		}
	}
	b.emit(out)
	return len(out) > 0, nil
}

func (f *filterOp) Close() error {
	putBatch(f.in)
	f.in = nil
	return f.child.Close()
}

// projectOp maps each input batch onto the resolved column positions,
// building output rows in arena storage (no per-row allocation).
type projectOp struct {
	child     Op
	idx       []int
	size      int
	transient bool
	in        *Batch
	arena     arena
}

func (p *projectOp) Open() error {
	p.in = getBatch(p.size)
	return p.child.Open()
}

func (p *projectOp) Next(b *Batch) (bool, error) {
	if p.transient {
		p.arena.reset()
	}
	ok, err := p.child.Next(p.in)
	if err != nil || !ok {
		b.Rows = nil
		return false, err
	}
	out := b.own()
	p.arena.reserve(len(p.in.Rows) * len(p.idx))
	for _, r := range p.in.Rows {
		nr := p.arena.alloc(len(p.idx))
		for i, pos := range p.idx {
			nr[i] = r[pos]
		}
		out = append(out, nr)
	}
	b.emit(out)
	return true, nil
}

func (p *projectOp) Close() error {
	putBatch(p.in)
	p.in = nil
	return p.child.Close()
}

// unionOp streams the left child to exhaustion, then the right (bag
// semantics, concatenation order).
type unionOp struct {
	left, right Op
	onRight     bool
}

func (u *unionOp) Open() error {
	if err := u.left.Open(); err != nil {
		return err
	}
	return u.right.Open()
}

func (u *unionOp) Next(b *Batch) (bool, error) {
	if !u.onRight {
		ok, err := u.left.Next(b)
		if err != nil || ok {
			return ok, err
		}
		u.onRight = true
	}
	return u.right.Next(b)
}

func (u *unionOp) Close() error {
	err := u.left.Close()
	if err2 := u.right.Close(); err == nil {
		err = err2
	}
	return err
}

// nljOp is the nested-loop join fallback for predicates without an
// equi-conjunct: the right side materializes once, the left streams, and
// output order is left-major.
type nljOp struct {
	left, right Op
	pred        pairPred
	size        int

	in        *Batch
	rightRows []types.Row
	started   bool
	done      bool
	li        int // resume position in the current left batch
	transient bool
	arena     arena
}

func (o *nljOp) Open() error {
	o.in = getBatch(o.size)
	if err := o.left.Open(); err != nil {
		return err
	}
	return o.right.Open()
}

func (o *nljOp) Next(b *Batch) (bool, error) {
	if o.transient {
		o.arena.reset()
	}
	if !o.started {
		rows, err := drainAll(o.right, o.size)
		if err != nil {
			return false, err
		}
		o.rightRows = rows
		o.started = true
		o.in.Rows = o.in.Rows[:0]
	}
	out := b.own()
	for {
		if o.li >= len(o.in.Rows) {
			if o.done {
				break
			}
			ok, err := o.left.Next(o.in)
			if err != nil {
				return false, err
			}
			if !ok {
				o.done = true
				break
			}
			o.li = 0
		}
		for o.li < len(o.in.Rows) {
			l := o.in.Rows[o.li]
			o.li++
			for _, r := range o.rightRows {
				if o.pred.eval(l, r) {
					out = append(out, o.arena.concat(l, r))
				}
			}
			if len(out) >= o.size {
				b.emit(out)
				return true, nil
			}
		}
	}
	b.emit(out)
	return len(out) > 0, nil
}

func (o *nljOp) Close() error {
	putBatch(o.in)
	o.in = nil
	err := o.left.Close()
	if err2 := o.right.Close(); err == nil {
		err = err2
	}
	return err
}
