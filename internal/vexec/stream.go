package vexec

import (
	"sync"

	"disco/internal/types"
)

// streamFeeder incrementally publishes a child pipeline's rows to the
// partition-owner workers of a breaker. A single reader goroutine pulls
// batches from the child and appends the row headers to a shared,
// append-only slice; workers wait on the published prefix and scan it in
// global input order. Because the slice only ever grows and row values
// are immutable once emitted (the Batch contract: backing arrays are not
// reused), a snapshot of the slice header taken under the lock stays
// valid after the lock is released.
//
// This replaces the drain-then-scan build phase of the breakers without
// changing what any worker sees: each worker still visits every row in
// input order with its global index, so partition-owner determinism (and
// with it bit-identical output) is preserved — rows merely become
// visible as the child produces them instead of all at once.
type streamFeeder struct {
	mu   sync.Mutex
	cond sync.Cond
	rows []types.Row
	done bool
	err  error
}

// startFeeder begins draining child on a reader goroutine. The feeder
// owns the child's Next calls until it observes exhaustion or an error;
// callers must consume the feeder to completion (workers do — they exit
// only once done is set) before the operator's Close can touch the
// child, so the reader never races a Close.
func startFeeder(child Op, size int) *streamFeeder {
	f := &streamFeeder{}
	f.cond.L = &f.mu
	go func() {
		b := getBatch(size)
		defer putBatch(b)
		for {
			ok, err := child.Next(b)
			f.mu.Lock()
			if err != nil || !ok {
				f.err = err
				f.done = true
				f.cond.Broadcast()
				f.mu.Unlock()
				return
			}
			f.rows = append(f.rows, b.Rows...)
			f.cond.Broadcast()
			f.mu.Unlock()
		}
	}()
	return f
}

// preloadedFeeder wraps an already materialized input (the budget-tracked
// build path, which must see the whole input before deciding against
// spilling) in the same interface the streaming workers consume.
func preloadedFeeder(rows []types.Row) *streamFeeder {
	f := &streamFeeder{rows: rows, done: true}
	f.cond.L = &f.mu
	return f
}

// waitFor blocks until at least n rows are published or the input is
// exhausted, and returns the currently published prefix. A shorter
// prefix than n means the stream ended; err reports a child failure (the
// prefix then is what was published before it and must be discarded by
// failing the build).
func (f *streamFeeder) waitFor(n int) ([]types.Row, error) {
	f.mu.Lock()
	for len(f.rows) < n && !f.done {
		f.cond.Wait()
	}
	rows, err := f.rows, f.err
	f.mu.Unlock()
	return rows, err
}

// NewSliceSource returns an Op streaming a materialized row set in
// batches that alias rows (no copying); batchSize <= 0 uses the default.
// It is the entry point for hosts that feed externally produced rows —
// e.g. gathered scatter shards — through the batch pipeline.
func NewSliceSource(rows []types.Row, batchSize int) Op {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return newSource(rows, batchSize)
}

// NewUnionAll chains children into a left-to-right n-ary bag union. No
// children yields an empty pipeline.
func NewUnionAll(children ...Op) Op {
	if len(children) == 0 {
		return newSource(nil, DefaultBatchSize)
	}
	out := children[0]
	for _, c := range children[1:] {
		out = &unionOp{left: out, right: c}
	}
	return out
}
