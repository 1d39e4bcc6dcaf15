package proto

import (
	"bytes"
	"strings"
	"testing"

	"disco/internal/types"
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
	seed(&WrapperResponse{OK: true, Rows: []types.Row{{types.Int(1), types.Str("x"), types.Float(2.5), types.Null, types.Bool(true)}},
		VirtualMS: 3.25})
	seed(&WrapperResponse{Error: "boom", Retryable: true})
	seed(&Request{Op: "query", SQL: "select * from Employee"})
	f.Add([]byte("{\"op\":\n\n{bad json}\n"))
	f.Add([]byte(strings.Repeat("a", 4096)))
	f.Add([]byte{0, '\n', 0xff, 0xfe, '\n'})
	seed(&Response{OK: true, Columns: []string{"a", "b"},
		Rows: []types.Row{{types.Int(5), types.Str("x\ny")}, {types.Null, types.Bool(false)}}})
	f.Add([]byte("{\"ok\":true,\"rowBytes\":1000000}\nzz"))       // rowBytes larger than the stream
	f.Add(framed(block(1<<40, 1, 'z')))                           // row count larger than the block
	f.Add(framed(block(1, 1, 'i', 0x80)))                         // truncated varint
	f.Add(append(framed(block(1, 1, 't')), "{\"ok\":true}\n"...)) // a frame behind a block
	f.Add(block(2, 2, 'i', 0x0e, 'z', 's', 1, 'x', 'f'))          // a bare block
	f.Add(framed(block(1, 1, 'i', 0x82, 0x00)))                   // an overlong varint

	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, err := decodeBlock(data); err == nil {
			requireReencodes(t, data, rows)
		}
		for _, read := range []func(r *Reader) ([]types.Row, error){
			func(r *Reader) ([]types.Row, error) { _, err := r.ReadWrapperRequest(); return nil, err },
			func(r *Reader) ([]types.Row, error) {
				resp, err := r.ReadWrapperResponse()
				if err != nil {
					return nil, err
				}
				return resp.Rows, nil
			},
			func(r *Reader) ([]types.Row, error) { _, err := r.ReadRequest(); return nil, err },
			func(r *Reader) ([]types.Row, error) {
				resp, err := r.ReadResponse()
				if err != nil {
					return nil, err
				}
				return resp.Rows, nil
			},
		} {
			r := NewReader(bytes.NewReader(data))
			for i := 0; i < 64; i++ { // bounded: a frame per line at most
				rows, err := read(r)
				if err != nil {
					break
				}
				if len(rows) > 0 {
					requireReencodes(t, r.block.Bytes(), rows)
				}
			}
		}
	})
}

// requireReencodes: the rows a block decoded to encode to that block
// again, byte for byte. The decoder accepts only what the encoder
// writes, so a value has one encoding and a digest of the bytes is a
// digest of the values.
func requireReencodes(t *testing.T, block []byte, rows []types.Row) {
	t.Helper()
	again, err := appendBlock(nil, rows)
	if err != nil {
		t.Fatalf("decoded rows do not encode: %v", err)
	}
	if !bytes.Equal(again, block) {
		t.Fatalf("block %x decoded to %v, which encodes to %x", block, rows, again)
	}
}

func TestWriteTruncatedNeverWhole(t *testing.T) {
	rows := make([]types.Row, 40)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Str("padding")}
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
