package serving

import (
	"net"
	"strings"
	"testing"

	"disco/internal/proto"
	"disco/internal/types"
)

// hugeHandler answers "query" with one value too large for any frame.
type hugeHandler struct{}

func (hugeHandler) Handle(req *proto.Request) *proto.Response {
	if req.Op == "query" {
		return &proto.Response{OK: true, Columns: []string{"c"},
			Rows: []types.Row{{types.Str(strings.Repeat("x", 17<<20))}}}
	}
	return &proto.Response{OK: true, Text: "pong"}
}

// TestOversizedAnswerIsAnErrorResponse: an answer over the frame limit
// used to be written in full for the client's reader to fail on. The
// limit now holds where the frame is built: the client reads an error
// response that names it, and the connection keeps serving.
func TestOversizedAnswerIsAnErrorResponse(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		NewConnServer(hugeHandler{}, 0, nil).ServeConn(server)
	}()
	r := proto.NewReader(client)
	for _, step := range []struct {
		op     string
		wantOK bool
	}{{"query", false}, {"ping", true}} {
		if err := proto.Write(client, &proto.Request{Op: step.op}); err != nil {
			t.Fatal(err)
		}
		resp, err := r.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", step.op, err)
		}
		if resp.OK != step.wantOK {
			t.Fatalf("%s: ok=%v error=%q", step.op, resp.OK, resp.Error)
		}
		if !resp.OK && (!strings.Contains(resp.Error, "limit") || len(resp.Rows) != 0) {
			t.Errorf("%s: error %q with %d rows; want the frame limit named and no rows",
				step.op, resp.Error, len(resp.Rows))
		}
	}
}
