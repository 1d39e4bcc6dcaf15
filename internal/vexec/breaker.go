package vexec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"disco/internal/algebra"
	"disco/internal/types"
)

// This file holds the two breakers without a spill path: sort and
// duplicate elimination. Both produce exactly the reference order — see
// the package comment's determinism contract.

// sortOp materializes its input, sorts it stably and streams the result.
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
	rows, err := drainAll(s.child, s.size)
	if err != nil {
		return err
	}
	cmp, err := compileComparator(s.schema, s.keys)
	if err != nil {
		return err
	}
	s.rows = cmp.sort(rows)
	return nil
}

func (s *sortOp) Close() error { return s.child.Close() }

// dupElimOp removes duplicate rows keeping first occurrences in order. It
// streams: the set of first occurrences, keyed by value identity, is its
// only state.
type dupElimOp struct {
	child Op
	pos   []int // every position of the input schema: the whole row is the key
	size  int

	seen keyTable
	in   *Batch
	done bool
}

func (d *dupElimOp) Open() error {
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
			h := rowKeyHash(r, d.pos)
			if id, slot := d.seen.find(r, d.pos, h); id < 0 {
				d.seen.add(slot, h, r)
				out = append(out, r)
			}
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
	d.seen.release(false)
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

// sort returns rows in stable sorted order without writing into rows (it
// may be a store's): a reordered answer is a new slice. A NaN in any key
// column makes Compare tie it with every number, which is no strict weak
// order: such input keeps the insertion-and-merge stable sort the
// reference evaluator also runs. Otherwise the sort orders a permutation
// by (keys, input index) — the stable order, by an unstable sort —
// reading a first key column that holds only ints into a typed slice once.
func (rc rowComparator) sort(rows []types.Row) []types.Row {
	if len(rows) < 2 {
		return rows
	}
	if rc.hasNaN(rows) {
		out := slices.Clone(rows)
		slices.SortStableFunc(out, rc.Compare)
		return out
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	if first := rc.keys[0]; allInts(rows, first.pos) {
		rest := rowComparator{keys: rc.keys[1:]}
		sortByIntColumn(perm, rows, first, func(a, b int32) int {
			if c := rest.Compare(rows[a], rows[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	} else {
		slices.SortFunc(perm, func(a, b int32) int {
			if c := rc.Compare(rows[a], rows[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	out := make([]types.Row, len(rows))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
}

// sortByIntColumn sorts perm by the first key, read into an int column
// once, then by tie. On ints cmp.Compare orders exactly as
// Constant.Compare does.
func sortByIntColumn(perm []int32, rows []types.Row, key keyPos, tie func(a, b int32) int) {
	col := make([]int64, len(rows))
	for i, r := range rows {
		col[i] = r[key.pos].AsInt()
	}
	sign := 1
	if key.desc {
		sign = -1
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(col[a], col[b]); c != 0 {
			return sign * c
		}
		return tie(a, b)
	})
}

// hasNaN reports whether any sort key column holds a float NaN.
func (rc rowComparator) hasNaN(rows []types.Row) bool {
	for _, kp := range rc.keys {
		for _, r := range rows {
			if c := r[kp.pos]; c.Kind() == types.KindFloat && math.IsNaN(c.AsFloat()) {
				return true
			}
		}
	}
	return false
}

// allInts reports whether every row holds an int at pos.
func allInts(rows []types.Row, pos int) bool {
	for _, r := range rows {
		if r[pos].Kind() != types.KindInt {
			return false
		}
	}
	return true
}
