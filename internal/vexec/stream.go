package vexec

import "disco/internal/types"

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
