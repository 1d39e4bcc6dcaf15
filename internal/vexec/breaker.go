package vexec

import (
	"fmt"
	"slices"

	"disco/internal/algebra"
	"disco/internal/types"
)

// This file holds the two breakers without a spill path: sort and
// duplicate elimination. Both produce exactly the reference order — see
// the package comment's determinism contract.

// sortOp materializes its input, stable-sorts it and streams the result.
type sortOp struct {
	child  Op
	schema *types.Schema
	keys   []algebra.SortKey
	size   int

	started bool
	rows    []types.Row
	pos     int
}

func (s *sortOp) Open() error { return s.child.Open() }

func (s *sortOp) Next(b *Batch) (bool, error) {
	if err := s.start(); err != nil {
		return false, err
	}
	return emitSlice(s.rows, &s.pos, s.size, b), nil
}

func (s *sortOp) rest() ([]types.Row, bool, error) {
	if err := s.start(); err != nil {
		return nil, false, err
	}
	return restOf(s.rows, &s.pos), true, nil
}

// start runs the build phase once.
func (s *sortOp) start() error {
	if s.started {
		return nil
	}
	s.started = true
	return s.build()
}

// emitSlice streams a materialized result in aliasing batches; it is the
// common drain of every breaker.
func emitSlice(rows []types.Row, pos *int, size int, b *Batch) bool {
	if *pos >= len(rows) {
		b.Rows = nil
		return false
	}
	n := len(rows) - *pos
	if n > size {
		n = size
	}
	b.Rows = rows[*pos : *pos+n]
	*pos += n
	return true
}

func (s *sortOp) build() error {
	rows, err := drainChild(s.child, s.size)
	if err != nil {
		return err
	}
	cmp, err := compileComparator(s.schema, s.keys)
	if err != nil {
		return err
	}
	slices.SortStableFunc(rows, cmp.Compare)
	s.rows = rows
	return nil
}

func (s *sortOp) Close() error { return s.child.Close() }

// dupElimOp removes duplicate rows keeping first occurrences in order. It
// streams: the seen-set is its only state.
type dupElimOp struct {
	child Op
	size  int

	seen map[string]struct{}
	enc  keyEnc
	in   *Batch
	done bool
}

func (d *dupElimOp) Open() error {
	d.seen = make(map[string]struct{})
	d.in = getBatch(d.size)
	return d.child.Open()
}

func (d *dupElimOp) Next(b *Batch) (bool, error) {
	out := b.own()
	for !d.done {
		ok, err := d.child.Next(d.in)
		if err != nil {
			return false, err
		}
		if !ok {
			d.done = true
			break
		}
		for _, r := range d.in.Rows {
			d.enc.reset()
			d.enc.row(r)
			if _, dup := d.seen[string(d.enc.buf)]; dup {
				continue
			}
			d.seen[string(d.enc.buf)] = struct{}{}
			out = append(out, r)
		}
		if len(out) >= d.size/2 {
			b.emit(out)
			return true, nil
		}
	}
	b.emit(out)
	return len(out) > 0, nil
}

func (d *dupElimOp) Close() error {
	putBatch(d.in)
	d.in = nil
	return d.child.Close()
}

// keyPos is one compiled sort key: a resolved position and a direction.
type keyPos struct {
	pos  int
	desc bool
}

// rowComparator is a precompiled multi-key row comparator: sort keys are
// resolved to row positions once, so each comparison is two index loads
// and a Constant.Compare with no name lookups and no captured state.
type rowComparator struct {
	keys []keyPos
}

// compileComparator resolves sort keys against the schema into a
// position-based comparator.
func compileComparator(schema *types.Schema, keys []algebra.SortKey) (rowComparator, error) {
	kps := make([]keyPos, len(keys))
	for i, k := range keys {
		pos, ok := algebra.RefIndex(schema, k.Attr)
		if !ok {
			return rowComparator{}, fmt.Errorf("vexec: unknown sort key %s", k.Attr)
		}
		kps[i] = keyPos{pos: pos, desc: k.Desc}
	}
	return rowComparator{keys: kps}, nil
}

// Compare orders a against b: negative when a sorts first, positive when
// b does, zero when the keys tie.
func (rc rowComparator) Compare(a, b types.Row) int {
	for _, kp := range rc.keys {
		c := a[kp.pos].Compare(b[kp.pos])
		if c == 0 {
			continue
		}
		if kp.desc {
			return -c
		}
		return c
	}
	return 0
}
