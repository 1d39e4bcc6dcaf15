package vexec

import (
	"fmt"
	"slices"

	"disco/internal/algebra"
	"disco/internal/types"
)

// This file holds the two breakers without a spill path: sort and
// duplicate elimination. Both materialize their input (they must), and
// both produce exactly the sequential reference order under any worker
// count — see the package comment's determinism contract.

// sortOp materializes, sorts and streams. Workers > 1 stable-sorts
// contiguous chunks in parallel and merges pairwise with left-chunk tie
// priority, which reproduces the sequential stable sort bit for bit.
type sortOp struct {
	child  Op
	schema *types.Schema
	keys   []algebra.SortKey
	opts   Options
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
	w := s.opts.workers()
	if w <= 1 || len(rows) < 2*morselRows {
		slices.SortStableFunc(rows, cmp.Compare)
		s.rows = rows
		return nil
	}
	s.rows = parallelStableSort(rows, cmp, w)
	return nil
}

func (s *sortOp) Close() error { return s.child.Close() }

// parallelStableSort stable-sorts w contiguous chunks concurrently and
// merges adjacent pairs (also concurrently) until one run remains. A
// stable merge that prefers the left run on ties yields exactly the
// sequential stable sort's order.
func parallelStableSort(rows []types.Row, cmp rowComparator, w int) []types.Row {
	chunks := chunkBounds(len(rows), w)
	runWorkers(len(chunks), func(i int) {
		c := chunks[i]
		slices.SortStableFunc(rows[c[0]:c[1]], cmp.Compare)
	})
	buf := make([]types.Row, len(rows))
	for len(chunks) > 1 {
		pairs := len(chunks) / 2
		next := make([][2]int, 0, (len(chunks)+1)/2)
		for p := 0; p < pairs; p++ {
			next = append(next, [2]int{chunks[2*p][0], chunks[2*p+1][1]})
		}
		if len(chunks)%2 == 1 {
			next = append(next, chunks[len(chunks)-1])
		}
		runWorkers(pairs, func(p int) {
			l, r := chunks[2*p], chunks[2*p+1]
			mergeStable(buf[l[0]:r[1]], rows[l[0]:l[1]], rows[r[0]:r[1]], cmp)
		})
		for p := 0; p < pairs; p++ {
			copy(rows[chunks[2*p][0]:chunks[2*p+1][1]], buf[chunks[2*p][0]:chunks[2*p+1][1]])
		}
		chunks = next
	}
	return rows
}

// mergeStable merges two sorted runs into dst, left run winning ties.
func mergeStable(dst, l, r []types.Row, cmp rowComparator) {
	i, j, k := 0, 0, 0
	for i < len(l) && j < len(r) {
		if cmp.Compare(l[i], r[j]) <= 0 {
			dst[k] = l[i]
			i++
		} else {
			dst[k] = r[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], l[i:])
	copy(dst[k:], r[j:])
}

// dupElimOp removes duplicate rows keeping first occurrences in order.
// Sequentially it streams (the seen-set is the only state); with workers
// it materializes and uses partition-owner scanning: worker w encodes
// every row in order but only consults its own seen-set for rows hashing
// to its partition, recording survivors with their global index; a final
// index sort restores the exact first-seen order.
type dupElimOp struct {
	child Op
	opts  Options
	size  int

	// streaming state (workers <= 1)
	seen map[string]struct{}
	enc  keyEnc
	in   *Batch
	done bool

	// materialized state (workers > 1)
	started bool
	out     []types.Row
	pos     int
}

func (d *dupElimOp) Open() error {
	if d.opts.workers() <= 1 {
		d.seen = make(map[string]struct{})
		d.in = getBatch(d.size)
	}
	return d.child.Open()
}

func (d *dupElimOp) Next(b *Batch) (bool, error) {
	if d.opts.workers() > 1 {
		if err := d.start(); err != nil {
			return false, err
		}
		return emitSlice(d.out, &d.pos, d.size, b), nil
	}
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

// rest hands over the materialized (parallel) output; the sequential
// mode streams.
func (d *dupElimOp) rest() ([]types.Row, bool, error) {
	if d.opts.workers() <= 1 {
		return nil, false, nil
	}
	if err := d.start(); err != nil {
		return nil, false, err
	}
	return restOf(d.out, &d.pos), true, nil
}

// start runs the parallel build phase once.
func (d *dupElimOp) start() error {
	if d.started {
		return nil
	}
	d.started = true
	return d.buildParallel()
}

func (d *dupElimOp) buildParallel() error {
	// Workers consume the child's rows as the feeder publishes them —
	// the breaker no longer waits for the full input before scanning.
	// Each worker still encodes every row in global input order, so the
	// partition-owner determinism argument is unchanged.
	f := startFeeder(d.child, d.size)
	w := d.opts.workers()
	type survivor struct {
		row types.Row
		idx int
	}
	parts := make([][]survivor, w)
	errs := make([]error, w)
	runWorkers(w, func(p int) {
		var enc keyEnc
		seen := make(map[string]struct{})
		var mine []survivor
		i := 0
		for {
			rows, err := f.waitFor(i + 1)
			if err != nil {
				errs[p] = err
				return
			}
			if i >= len(rows) {
				break
			}
			for ; i < len(rows); i++ {
				r := rows[i]
				enc.reset()
				enc.row(r)
				if int(fnvBytes(enc.buf)%uint64(w)) != p {
					continue
				}
				if _, dup := seen[string(enc.buf)]; dup {
					continue
				}
				seen[string(enc.buf)] = struct{}{}
				mine = append(mine, survivor{row: r, idx: i})
			}
		}
		parts[p] = mine
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []survivor
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.SortFunc(all, func(a, b survivor) int { return a.idx - b.idx })
	d.out = make([]types.Row, len(all))
	for i, s := range all {
		d.out[i] = s.row
	}
	return nil
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
