package vexec

import "disco/internal/types"

// Discard opens the pipeline and pulls it to exhaustion without
// materializing the output. The steady-state allocation gate uses it so
// the measurement sees only the pipeline's own allocations, not the
// result slice growing.
func Discard(root Op, batchSize int) error {
	if err := root.Open(); err != nil {
		root.Close()
		return err
	}
	b := getBatch(batchSize)
	defer putBatch(b)
	for {
		ok, err := root.Next(b)
		if err != nil {
			root.Close()
			return err
		}
		if !ok {
			break
		}
	}
	return root.Close()
}

// NewSliceSource returns an Op streaming a materialized row set in
// batches that alias rows (no copying); batchSize <= 0 uses the default.
// Tests use it to feed hand-built rows through the batch pipeline.
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
