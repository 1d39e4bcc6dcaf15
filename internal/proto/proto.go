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
// value codec. encoding/json never sees a row.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

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
	Columns   []string `json:"columns,omitempty"`
	Rows      [][]any  `json:"-"` // travels as the frame's row block
	ElapsedMS float64  `json:"elapsedMs,omitempty"`
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

// EncodeRow boxes a result row into the values a Response carries.
func EncodeRow(row types.Row) []any { return EncodeRows([]types.Row{row})[0] }

// EncodeRows is EncodeRow over a result set, on one backing array.
func EncodeRows(rows []types.Row) [][]any {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	flat := make([]any, n)
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i], flat = flat[:len(row):len(row)], flat[len(row):]
		for j, c := range row {
			out[i][j] = EncodeConstant(c)
		}
	}
	return out
}

// DecodeRows turns the rows of a response back into constants.
func DecodeRows(enc [][]any) []types.Row {
	out := make([]types.Row, len(enc))
	for i, row := range enc {
		out[i] = make(types.Row, len(row))
		for j, v := range row {
			out[i][j] = DecodeConstant(v)
		}
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
// built and where it is read. A variable so tests can lower it.
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

// EncodeFrame renders one message (passed by pointer) as its wire frame:
// the JSON line and, for a response with rows, the row block. A frame
// over the limit, and rows of unequal or no width, are errors.
func EncodeFrame(v any) ([]byte, error) {
	var block []byte
	var err error
	switch m := v.(type) {
	case *Response:
		if len(m.Rows) > 0 {
			block, err = encodeBlock(m.Rows)
			v = responseHeader{m, len(block)}
		}
	case *WrapperResponse:
		if len(m.Rows) > 0 {
			block, err = encodeBlock(m.Rows)
			v = wrapperResponseHeader{m, len(block)}
		}
	}
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if n := len(line) + 1 + len(block); n > maxFrame {
		return nil, fmt.Errorf("proto: a %d-byte frame exceeds the %d-byte limit", n, maxFrame)
	}
	return append(append(line, '\n'), block...), nil
}

func encodeBlock(rows [][]any) ([]byte, error) {
	cols := len(rows[0])
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+4*len(rows)*cols)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(cols))
	for _, row := range rows {
		if len(row) != cols || cols == 0 {
			return nil, fmt.Errorf("proto: a row of %d values in a result of %d columns", len(row), cols)
		}
		for _, v := range row {
			buf = types.AppendValue(buf, DecodeConstant(v))
		}
	}
	return buf, nil
}

// decodeBlock rebuilds the rows of a block over one backing array. The
// counts are outside input: a value is at least a byte, so counts the
// block cannot hold are refused before anything is allocated for them.
func decodeBlock(b []byte) ([][]any, error) {
	rows, n := binary.Uvarint(b)
	cols, m := binary.Uvarint(b[max(n, 0):])
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("proto: row block: truncated counts")
	}
	if b = b[n+m:]; cols == 0 || cols > uint64(len(b)) || rows > uint64(len(b))/cols {
		return nil, fmt.Errorf("proto: row block: %d rows of %d columns claimed in %d bytes", rows, cols, len(b))
	}
	flat := make([]any, rows*cols)
	out := make([][]any, rows)
	for i := range out {
		out[i], flat = flat[:cols:cols], flat[cols:]
		for j := range out[i] {
			c, n, err := types.DecodeValue(b)
			if err != nil {
				return nil, fmt.Errorf("proto: row block: %w", err)
			}
			out[i][j], b = EncodeConstant(c), b[n:]
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("proto: row block: %d bytes left over", len(b))
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
func (r *Reader) readWithRows(h any, n *int, rows *[][]any) error {
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
