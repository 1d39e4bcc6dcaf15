package proto

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzFrameDecode drives the frame reader with arbitrary byte streams:
// decoding must never panic, whatever a header announces and whatever a
// row block claims to hold (the CI fuzz-smoke job runs this for 30 s).
// The reader is exercised through every message type since they share
// the line and block reading but unmarshal into different shapes.
func FuzzFrameDecode(f *testing.F) {
	seed := func(v any) {
		data, err := EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(&WrapperRequest{Op: "meta"})
	seed(&WrapperResponse{OK: true, Rows: [][]any{{int64(1), "x", 2.5, nil, true}}, VirtualMS: 3.25})
	seed(&WrapperResponse{Error: "boom", Retryable: true})
	seed(&Request{Op: "query", SQL: "select * from Employee"})
	f.Add([]byte("{\"op\":\n\n{bad json}\n"))
	f.Add([]byte(strings.Repeat("a", 4096)))
	f.Add([]byte{0, '\n', 0xff, 0xfe, '\n'})
	seed(&Response{OK: true, Columns: []string{"a", "b"}, Rows: [][]any{{int64(5), "x\ny"}, {nil, false}}})
	f.Add([]byte("{\"ok\":true,\"rowBytes\":1000000}\nzz"))       // rowBytes larger than the stream
	f.Add(framed(block(1<<40, 1, 'z')))                           // row count larger than the block
	f.Add(framed(block(1, 1, 'i', 0x80)))                         // truncated varint
	f.Add(append(framed(block(1, 1, 't')), "{\"ok\":true}\n"...)) // a frame behind a block

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, read := range []func(r *Reader) error{
			func(r *Reader) error { _, err := r.ReadWrapperRequest(); return err },
			func(r *Reader) error { _, err := r.ReadWrapperResponse(); return err },
			func(r *Reader) error { _, err := r.ReadRequest(); return err },
			func(r *Reader) error { _, err := r.ReadResponse(); return err },
		} {
			r := NewReader(bytes.NewReader(data))
			for i := 0; i < 64; i++ { // bounded: a frame per line at most
				if read(r) != nil {
					break
				}
			}
		}
	})
}

func TestWriteTruncatedNeverWhole(t *testing.T) {
	rows := make([][]any, 40)
	for i := range rows {
		rows[i] = []any{int64(i), "padding"}
	}
	for name, resp := range map[string]*WrapperResponse{
		"no rows": {OK: true, Bytes: 123, VirtualMS: 4.5},
		"rows":    {OK: true, Rows: rows, Bytes: 123, VirtualMS: 4.5},
	} {
		full, err := EncodeFrame(resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{-1, 0, 0.5, 1, 2} {
			var buf bytes.Buffer
			if err := WriteTruncated(&buf, resp, frac); err != nil {
				t.Fatal(err)
			}
			if buf.Len() < 1 || buf.Len() >= len(full) {
				t.Errorf("%s, frac %v: wrote %d of %d bytes; must be a strict non-empty prefix",
					name, frac, buf.Len(), len(full))
			}
			if !bytes.HasPrefix(full, buf.Bytes()) {
				t.Errorf("%s, frac %v: output is not a prefix of the frame", name, frac)
			}
			// A truncated frame must leave the reader without a
			// decodable message, wherever it was cut.
			if _, err := NewReader(&buf).ReadWrapperResponse(); err == nil {
				t.Errorf("%s, frac %v: truncated frame decoded cleanly", name, frac)
			}
		}
		// With rows the frame is mostly block, so half of it ends there.
		if header := bytes.IndexByte(full, '\n') + 1; len(resp.Rows) > 0 && len(full)/2 <= header {
			t.Errorf("%s: the 0.5 cut at %d is not past the %d-byte header", name, len(full)/2, header)
		}
	}
}
