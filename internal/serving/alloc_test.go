package serving

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"disco/internal/proto"
	"disco/internal/types"
)

// TestQueryAllocBytesCeiling bounds what one small answer costs in heap:
// a 70-row range over the demo federation, prepared from the plan cache,
// must stay under 128 KiB per Mediator.Query. What a submit allocates
// follows what it returns; an executor that sizes row storage for a long
// scan regardless of the answer reads several times the ceiling.
func TestQueryAllocBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	fed, err := NewDemoFederation(Options{Parts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 70`
	query := func() {
		res, err := fed.Med.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 70 {
			t.Fatalf("answer has %d rows, want 70", len(res.Rows))
		}
	}
	for i := 0; i < 10; i++ {
		query() // fill the plan cache, the history entry and the batch pool
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per query", perQuery)
	if perQuery > 128<<10 {
		t.Errorf("%d bytes allocated per 70-row query, want at most %d", perQuery, 128<<10)
	}
}

// TestHandleAllocConstant: Server.Handle hands the mediator's rows to
// the response as they are. On a 1000-row answer it allocates a
// constant number of times beyond Mediator.Query (the response and its
// column names); boxing the values cost two allocations per row.
func TestHandleAllocConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fed, err := NewDemoFederation(Options{Parts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fed, 0)
	const sql = `SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 1000`
	req := &proto.Request{Op: "query", SQL: sql}
	for i := 0; i < 10; i++ { // fill the plan cache, the history entry and the batch pool
		if resp := srv.Handle(req); !resp.OK || len(resp.Rows) != 1000 {
			t.Fatalf("answer: ok=%t error=%q, %d rows, want 1000", resp.OK, resp.Error, len(resp.Rows))
		}
	}
	query := testing.AllocsPerRun(50, func() {
		if _, err := fed.Med.Query(sql); err != nil {
			t.Fatal(err)
		}
	})
	handle := testing.AllocsPerRun(50, func() { srv.Handle(req) })
	t.Logf("allocations: Mediator.Query %.0f, Server.Handle %.0f", query, handle)
	if handle > query+8 {
		t.Errorf("Server.Handle made %.0f allocations on a 1000-row answer, Mediator.Query %.0f; want at most 8 more",
			handle, query)
	}
}

// TestConnBlockAllocFree: a connection keeps its frame buffers, so every
// 10 000-row answer after the first on the same ServeConn allocates
// nothing for its block; what it allocates is the request and the header
// line.
func TestConnBlockAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	rows := make([]types.Row, 10000)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i) * 7919)}
	}
	answer := &proto.Response{OK: true, Columns: []string{"a", "b"}, Rows: rows}
	frame, err := proto.EncodeFrame(answer)
	if err != nil {
		t.Fatal(err)
	}
	request, err := proto.EncodeFrame(&proto.Request{Op: "query"})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		NewConnServer(fixedHandler{answer}, 0, nil).ServeConn(server)
	}()
	got := make([]byte, len(frame))
	exchange := func() {
		if _, err := client.Write(request); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if !bytes.Equal(got, frame) {
		t.Fatal("the connection wrote a frame other than EncodeFrame's")
	}
	// TotalAlloc counts every goroutine's allocations, so the mean over
	// many exchanges on one P is measured, as testing.AllocsPerRun
	// measures counts: an unrelated allocation elsewhere in the process
	// is spread over the runs instead of landing on one answer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	client.Close()
	<-done
	block := len(frame) - bytes.IndexByte(frame, '\n') - 1
	perAnswer := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("later answers: %d bytes allocated each for a %d-byte block", perAnswer, block)
	if perAnswer > 4<<10 {
		t.Errorf("later %d-byte blocks on one connection allocated %d bytes each, want under 4 KiB", block, perAnswer)
	}
}

// fixedHandler answers every request with one response.
type fixedHandler struct{ resp *proto.Response }

func (h fixedHandler) Handle(*proto.Request) *proto.Response { return h.resp }
