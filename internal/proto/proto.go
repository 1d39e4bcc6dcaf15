// Package proto defines the wire protocol spoken between the discod
// mediator server and its clients and, in wrapper.go, between a mediator
// and a remote wrapper: the paper's client-mediator interface (Figure 2,
// steps 3 and 6) and the submit operator's transfer (steps 4 and 5).
//
// A frame is one JSON object on one line, so requests and control
// answers stay readable with nc. A response that carries rows is its
// JSON header line, whose rowBytes field counts the bytes that follow,
// and then that many bytes of row block: uvarint row count, uvarint
// column count (at least one), then the values row by row in the types
// value codec. encoding/json never sees a row, and rows cross the wire
// typed: a response carries []types.Row, encoding appends each constant
// to the block, and decoding fills one slab of constants per answer.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"disco/internal/types"
)

// Request is one client message.
type Request struct {
	// Op selects the action: "query", "explain", "explain-analyze",
	// "catalog", "history", "feedback", "stats", "reregister",
	// "setlink", "warm" (prime the plan/result caches for SQL without a
	// client waiting), or "ping".
	Op string `json:"op"`
	// SQL carries the query text for query/explain/explain-analyze.
	SQL string `json:"sql,omitempty"`
	// Arg carries the non-SQL operand of administrative ops: the wrapper
	// name for reregister, "wrapper latencyMS perByteMS" for setlink.
	Arg string `json:"arg,omitempty"`
}

// Response is one server message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Overloaded marks an error produced by admission control shedding
	// the query (server at max in-flight capacity): the query was never
	// run and a retry after backoff is appropriate.
	Overloaded bool `json:"overloaded,omitempty"`
	// Query results.
	Columns   []string    `json:"columns,omitempty"`
	Rows      []types.Row `json:"-"` // travels as the frame's row block
	ElapsedMS float64     `json:"elapsedMs,omitempty"`
	// Partial marks an answer missing the contribution of unavailable
	// wrappers, listed in Excluded. A federation router reuses the pair
	// for scatter-gather degradation: a shard that failed on every
	// healthy replica marks the merged answer Partial and lists the
	// replicas tried in Excluded.
	Partial  bool     `json:"partial,omitempty"`
	Excluded []string `json:"excluded,omitempty"`
	// Replica attributes the answer when a router fronted the request:
	// the replica address that served it, or "scatter:<n>" for an answer
	// merged from n partitioned shards (Shards then counts them).
	Replica string `json:"replica,omitempty"`
	Shards  int    `json:"shards,omitempty"`
	// ShardDetail attributes a scatter-gather answer to the replicas
	// that actually served its shards, one entry per successful shard.
	// Load reports use it to credit shard work to real replicas instead
	// of burying everything under the synthetic "scatter:<n>" target.
	ShardDetail []ShardServed `json:"shardDetail,omitempty"`
	// Free-form text payload (explain output, catalog dump, ...).
	Text string `json:"text,omitempty"`
}

// ShardServed records one shard of a scatter-gather answer: the replica
// that served it, the shard's own elapsed time, and how many rows it
// contributed to the merged result.
type ShardServed struct {
	Replica   string  `json:"replica"`
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
	Rows      int     `json:"rows,omitempty"`
}

// EncodeRow boxes a result row into the Go values of its kinds.
func EncodeRow(row types.Row) []any {
	out := make([]any, len(row))
	for i, c := range row {
		out[i] = EncodeConstant(c)
	}
	return out
}

// EncodeConstant boxes one constant as the Go value of its kind.
func EncodeConstant(c types.Constant) any {
	switch c.Kind() {
	case types.KindInt:
		return c.AsInt()
	case types.KindFloat:
		return c.AsFloat()
	case types.KindString:
		return c.AsString()
	case types.KindBool:
		return c.AsBool()
	default:
		return nil
	}
}

// DecodeConstant is the inverse of EncodeConstant. A value that went
// through JSON (plan constants, attribute statistics) has lost the
// int/float distinction and is repaired by its declared kind there.
func DecodeConstant(v any) types.Constant {
	switch x := v.(type) {
	case nil:
		return types.Null
	case bool:
		return types.Bool(x)
	case string:
		return types.Str(x)
	case int:
		return types.Int(int64(x))
	case int64:
		return types.Int(x)
	case float64:
		return types.Float(x)
	default:
		return types.Str(fmt.Sprint(v))
	}
}

// maxFrame bounds one frame, header line plus row block, where it is
// built and where it is read. A variable so tests can lower it. A value
// is at least one byte on the wire and 32 bytes decoded (a
// types.Constant), and a row adds a 24-byte slice header: a full block
// of 1-byte values (nulls, bools) decodes to 512 MiB of values, and to
// 896 MiB when each row is one column.
var maxFrame = 16 << 20

// responseHeader and wrapperResponseHeader are the JSON line of a response
// with rows: the message's own fields and the length of the block behind it.
type responseHeader struct {
	*Response
	RowBytes int `json:"rowBytes,omitempty"`
}

type wrapperResponseHeader struct {
	*WrapperResponse
	RowBytes int `json:"rowBytes,omitempty"`
}

// AppendFrame appends the wire frame of one message (passed by pointer)
// in two parts: the JSON line, newline included, to line and, for a
// response with rows, the row block to block. A connection keeps both
// buffers from frame to frame and sends the two parts in one write. A
// frame over the limit, and rows of unequal or no width, are errors;
// line and block then come back as they were passed in.
func AppendFrame(line, block []byte, v any) ([]byte, []byte, error) {
	start := len(block)
	var err error
	switch m := v.(type) {
	case *Response:
		if len(m.Rows) > 0 {
			block, err = appendBlock(block, m.Rows)
			v = responseHeader{m, len(block) - start}
		}
	case *WrapperResponse:
		if len(m.Rows) > 0 {
			block, err = appendBlock(block, m.Rows)
			v = wrapperResponseHeader{m, len(block) - start}
		}
	}
	if err != nil {
		return line, block[:start], err
	}
	head, err := json.Marshal(v)
	if err != nil {
		return line, block[:start], err
	}
	if n := len(head) + 1 + len(block) - start; n > maxFrame {
		return line, block[:start], fmt.Errorf("proto: a %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	return append(append(line, head...), '\n'), block, nil
}

// EncodeFrame renders one message (passed by pointer) as its wire frame
// in one buffer: AppendFrame's two parts back to back.
func EncodeFrame(v any) ([]byte, error) {
	line, block, err := AppendFrame(nil, nil, v)
	if err != nil {
		return nil, err
	}
	return append(line, block...), nil
}

// appendBlock appends the row block of rows to buf. The rows are only
// read: an answer may be a result-cache entry other requests share.
func appendBlock(buf []byte, rows []types.Row) ([]byte, error) {
	cols := len(rows[0])
	buf = slices.Grow(buf, 2*binary.MaxVarintLen64+4*len(rows)*cols)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(cols))
	for _, row := range rows {
		if len(row) != cols || cols == 0 {
			return buf, fmt.Errorf("proto: a row of %d values in a result of %d columns", len(row), cols)
		}
		buf = types.AppendValues(buf, row)
	}
	return buf, nil
}

// decodeBlock rebuilds the rows of a block on one slab of constants, so
// only a string value allocates on its own. The counts are outside input:
// a value is at least a byte, so counts the block cannot hold are refused
// before anything is allocated for them.
func decodeBlock(b []byte) ([]types.Row, error) {
	rows, n := binary.Uvarint(b)
	cols, m := binary.Uvarint(b[max(n, 0):])
	if !types.MinimalVarint(b, n) || !types.MinimalVarint(b[n:], m) {
		return nil, fmt.Errorf("proto: row block: truncated or overlong counts")
	}
	if b = b[n+m:]; cols == 0 || cols > uint64(len(b)) || rows > uint64(len(b))/cols {
		return nil, fmt.Errorf("proto: row block: %d rows of %d columns claimed in %d bytes", rows, cols, len(b))
	}
	slab := make([]types.Constant, rows*cols)
	b, err := types.DecodeValues(slab, b)
	if err != nil {
		return nil, fmt.Errorf("proto: row block: %w", err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("proto: row block: %d bytes left over", len(b))
	}
	out := make([]types.Row, rows)
	for i := range out {
		out[i], slab = slab[:cols:cols], slab[cols:]
	}
	return out, nil
}

// Write sends one message as its frame.
func Write(w io.Writer, v any) error {
	data, err := EncodeFrame(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteTruncated writes only a prefix of the message's frame — at least
// one byte, never the whole frame — leaving the peer mid-line or mid-block.
// The fault injector uses it to model a connection dropped while a response
// is in flight, the failure mode that used to desync RemoteWrapper's stream.
func WriteTruncated(w io.Writer, v any, frac float64) error {
	data, err := EncodeFrame(v)
	if err != nil {
		return err
	}
	// Cut inside the frame, not merely before a header's newline: a line
	// missing only its delimiter would still decode once the connection
	// closes and the reader sees EOF.
	n := int(float64(len(data)) * frac)
	if n > len(data)-2 {
		n = len(data) - 2
	}
	if n < 1 {
		n = 1
	}
	_, err = w.Write(data[:n])
	return err
}

// Reader reads frames off one stream. It is not safe for concurrent use;
// each connection has its own.
type Reader struct {
	br *bufio.Reader
	// line gathers a header longer than br's buffer; block holds the
	// current row block. Both are kept between frames.
	line  []byte
	block bytes.Buffer
}

// NewReader wraps a connection for frame reading; frames up to 16 MiB
// are accepted (a result set is shipped as one frame).
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// ReadRequest reads the next request; io.EOF at end of stream.
func (r *Reader) ReadRequest() (*Request, error) {
	var req Request
	if err := r.read(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// ReadResponse reads the next response, rows included; io.EOF at end of
// stream.
func (r *Reader) ReadResponse() (*Response, error) {
	h := responseHeader{Response: new(Response)}
	if err := r.readWithRows(&h, &h.RowBytes, &h.Rows); err != nil {
		return nil, err
	}
	return h.Response, nil
}

// read decodes the next non-blank line into v; a last line without its
// delimiter still counts at end of stream.
func (r *Reader) read(v any) error {
	r.line = r.line[:0]
	for {
		line, more, err := r.br.ReadLine()
		if err != nil {
			return err
		}
		if more || len(r.line) > 0 {
			if r.line = append(r.line, line...); len(r.line) > maxFrame {
				return fmt.Errorf("proto: a header line exceeds the %d-byte frame limit", maxFrame)
			}
			line = r.line
		}
		if !more && len(line) > 0 {
			return json.Unmarshal(line, v)
		}
	}
}

// readWithRows reads a response: its header line into h, then the block
// of *n bytes that the header announced into *rows. *n is outside input:
// the block buffer grows as bytes arrive, never ahead of them.
func (r *Reader) readWithRows(h any, n *int, rows *[]types.Row) error {
	if err := r.read(h); err != nil || *n == 0 {
		return err
	}
	if *n < 0 || *n > maxFrame {
		return fmt.Errorf("proto: a %d-byte row block is outside the %d-byte frame limit", *n, maxFrame)
	}
	r.block.Reset()
	_, err := io.CopyN(&r.block, r.br, int64(*n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("proto: a %d-byte row block cut short: %w", *n, err)
	}
	*rows, err = decodeBlock(r.block.Bytes())
	return err
}
