package vexec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

// trickleOp emits rows in deliberately tiny batches and can fail
// mid-stream, exercising the breakers' error paths in a way a
// materialized source cannot.
type trickleOp struct {
	rows  []types.Row
	chunk int
	errAt int // fail once pos reaches this index (-1 = never)
	pos   int
}

func (s *trickleOp) Open() error { s.pos = 0; return nil }

func (s *trickleOp) Next(b *Batch) (bool, error) {
	if s.errAt >= 0 && s.pos >= s.errAt {
		return false, errors.New("trickle: injected failure")
	}
	if s.pos >= len(s.rows) {
		b.Rows = nil
		return false, nil
	}
	n := len(s.rows) - s.pos
	if n > s.chunk {
		n = s.chunk
	}
	b.Rows = s.rows[s.pos : s.pos+n]
	s.pos += n
	return true, nil
}

func (s *trickleOp) Close() error { return nil }

func trickleRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		// Low-cardinality keys force duplicates and populated groups.
		rows[i] = types.Row{types.Int(int64(i % 97)), types.Str(fmt.Sprintf("v%d", i%13))}
	}
	return rows
}

func trickleSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Collection: "T", Name: "k", Type: types.KindInt},
		types.Field{Collection: "T", Name: "v", Type: types.KindString},
	)
}

// TestBreakerErrorPropagation checks a child failure mid-stream reaches
// every breaker as an error, not a hang or a short result, in memory and
// under a spill budget small enough that the hash join and the grouped
// aggregate partition to disk before the failure.
func TestBreakerErrorPropagation(t *testing.T) {
	rows := trickleRows(4000)
	failing := func() Op { return &trickleOp{rows: rows, chunk: 11, errAt: 2500} }
	for mode, opts := range map[string]Options{
		"in-memory": {},
		"spill":     {MemBytes: 1, SpillDir: t.TempDir()},
	} {
		ops := map[string]Op{
			"sort": &sortOp{child: failing(), schema: trickleSchema(),
				keys: []algebra.SortKey{{Attr: algebra.Ref{Collection: "T", Attr: "k"}}}, size: 64},
			"dupelim": &dupElimOp{child: failing(), size: 64},
			"agg": &aggOp{child: failing(), inSchema: trickleSchema(),
				groupBy: []algebra.Ref{{Collection: "T", Attr: "k"}},
				aggs:    []algebra.AggSpec{{Func: algebra.AggCount, Star: true}},
				opts:    opts, stat: &NodeStat{}, size: 64},
			"hashjoin": &hashJoinOp{left: failing(), right: newSource(trickleRows(200), 64),
				lpos: 0, rpos: 0, equiOnly: true,
				opts: opts, stat: &NodeStat{}, size: 64},
		}
		for name, op := range ops {
			_, err := Drain(op, 64)
			if err == nil || err.Error() != "trickle: injected failure" {
				t.Errorf("%s %s: got err %v, want the injected failure", mode, name, err)
			}
		}
	}
}

// TestSliceSourceAndUnionAll sanity-checks the test-only gather
// helpers: aliasing batch emission and left-to-right bag union.
func TestSliceSourceAndUnionAll(t *testing.T) {
	a := trickleRows(100)
	b := trickleRows(50)
	got, err := Drain(NewUnionAll(NewSliceSource(a, 16), NewSliceSource(b, 16)), 16)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]types.Row(nil), a...), b...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("union-all: got %d rows, want %d in left-to-right order", len(got), len(want))
	}
	empty, err := Drain(NewUnionAll(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("empty union-all produced %d rows", len(empty))
	}
}
