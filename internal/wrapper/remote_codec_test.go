package wrapper

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

// cannedWrapper delegates to a real wrapper but answers its n-th Execute
// with answers[n] (the last one from then on), so a test chooses exactly
// what crosses the wire.
type cannedWrapper struct {
	Wrapper
	answers [][]types.Row
	calls   atomic.Int32
}

func (c *cannedWrapper) Execute(plan *algebra.Node) (*Result, error) {
	n := int(c.calls.Add(1)) - 1
	rows := c.answers[min(n, len(c.answers)-1)]
	return &Result{Rows: rows, Schema: plan.OutSchema, Bytes: types.RowBytes(rows)}, nil
}

// TestRemoteExecuteKeepsKindAndBits: through a live Serve and a dialed
// RemoteWrapper every value arrives with its kind and all 64 bits. Over
// JSON rows the ints past 2^53 arrived rounded, Float(2) arrived as
// Int(2), and a NaN made the server drop the connection.
func TestRemoteExecuteKeepsKindAndBits(t *testing.T) {
	sent := []types.Row{
		{types.Int(math.MaxInt64), types.Float(2), types.Str("")},
		{types.Int(math.MinInt64), types.Float(math.Copysign(0, -1)), types.Str("a\nb\x00c")},
		{types.Int(1<<53 + 1), types.Float(math.NaN()), types.Null},
		{types.Bool(true), types.Float(math.Inf(1)), types.Bool(false)},
		{types.Null, types.Float(math.Inf(-1)), types.Str("x")},
	}
	addr := startRemote(t, &cannedWrapper{Wrapper: newObjWrapper(t, 10), answers: [][]types.Row{sent}})
	rw, err := DialRemotePolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	res, err := rw.Execute(idPlan(t, rw, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st := rw.Stats(); st.Retries != 0 || st.Redials != 0 {
		t.Errorf("the answer needed %+v to arrive", st)
	}
	if len(res.Rows) != len(sent) {
		t.Fatalf("%d rows back, sent %d", len(res.Rows), len(sent))
	}
	for i, want := range sent {
		for j := range want {
			got := res.Rows[i][j]
			same := got.Kind() == want[j].Kind() && got.String() == want[j].String()
			if want[j].Kind() == types.KindFloat {
				same = same && math.Float64bits(got.AsFloat()) == math.Float64bits(want[j].AsFloat())
			}
			if !same {
				t.Errorf("row %d column %d: sent %v %v, got %v %v", i, j, want[j].Kind(), want[j], got.Kind(), got)
			}
		}
	}
}

// TestRemoteOversizedAnswerIsAPlainError: an answer over the frame limit
// used to be written in full, fail the client's reader, be retried until
// MaxAttempts and end as ErrUnavailable, a partial answer with no fault
// injected. The server now refuses to build the frame and says why: one
// attempt, a semantic error, and the connection lives on.
func TestRemoteOversizedAnswerIsAPlainError(t *testing.T) {
	addr := startRemote(t, &cannedWrapper{Wrapper: newObjWrapper(t, 10), answers: [][]types.Row{
		{{types.Str(strings.Repeat("x", 17<<20))}},
		{{types.Int(1)}},
	}})
	rw, err := DialRemotePolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	_, err = rw.Execute(idPlan(t, rw, 5))
	if err == nil || errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized answer: %v; want a plain error naming the frame limit", err)
	}
	if st := rw.Stats(); st.Retries != 0 || st.Redials != 0 {
		t.Errorf("oversized answer was retried: %+v", st)
	}
	if res, err := rw.Execute(idPlan(t, rw, 5)); err != nil || len(res.Rows) != 1 {
		t.Errorf("the connection did not survive the refusal: %v", err)
	}
}
