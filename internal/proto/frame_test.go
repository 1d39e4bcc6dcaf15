package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"disco/internal/types"
)

// sameConstant is kind-exact, bit-exact equality: Int(2) is not Float(2),
// 0.0 is not -0.0, and a NaN equals itself.
func sameConstant(a, b types.Constant) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case types.KindInt:
		return a.AsInt() == b.AsInt()
	case types.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case types.KindString:
		return a.AsString() == b.AsString()
	case types.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return true
}

// roundTrips sends rows through a frame of each response type, so each case
// below is checked for Response and for WrapperResponse.
var roundTrips = []struct {
	name string
	trip func(rows []types.Row) ([]types.Row, error)
}{
	{"Response", func(rows []types.Row) ([]types.Row, error) {
		frame, err := EncodeFrame(&Response{OK: true, Columns: []string{"c"}, Rows: rows})
		if err != nil {
			return nil, err
		}
		resp, err := NewReader(bytes.NewReader(frame)).ReadResponse()
		if err != nil {
			return nil, err
		}
		return resp.Rows, nil
	}},
	{"WrapperResponse", func(rows []types.Row) ([]types.Row, error) {
		frame, err := EncodeFrame(&WrapperResponse{OK: true, Rows: rows, Bytes: 9})
		if err != nil {
			return nil, err
		}
		resp, err := NewReader(bytes.NewReader(frame)).ReadWrapperResponse()
		if err != nil {
			return nil, err
		}
		return resp.Rows, nil
	}},
}

// TestValuesSurviveTheWire: kind and all 64 bits of every value arrive.
// Over JSON rows Int(1<<53+1) arrived rounded, Float(2) arrived as Int(2)
// and a NaN or an infinity failed the whole frame.
func TestValuesSurviveTheWire(t *testing.T) {
	values := types.Row{
		types.Int(math.MaxInt64), types.Int(math.MinInt64), types.Int(1<<53 + 1),
		types.Float(2), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Str(""), types.Str("a\nb\x00c"), types.Null, types.Bool(true), types.Bool(false),
	}
	for _, rt := range roundTrips {
		// Once as one wide row, once as a column of one-value rows.
		inputs := [][]types.Row{{values}, nil}
		for _, v := range values {
			inputs[1] = append(inputs[1], types.Row{v})
		}
		for _, in := range inputs {
			got, err := rt.trip(in)
			if err != nil {
				t.Fatalf("%s: %v", rt.name, err)
			}
			if len(got) != len(in) {
				t.Fatalf("%s: %d rows back, sent %d", rt.name, len(got), len(in))
			}
			for i := range in {
				if len(got[i]) != len(in[i]) {
					t.Fatalf("%s: row %d has %d values, sent %d", rt.name, i, len(got[i]), len(in[i]))
				}
				for j := range in[i] {
					if !sameConstant(in[i][j], got[i][j]) {
						t.Errorf("%s: sent %v %v, got %v %v", rt.name,
							in[i][j].Kind(), in[i][j], got[i][j].Kind(), got[i][j])
					}
				}
			}
		}
	}
}

// TestFramesBackToBack: frames with and without a block share one
// stream. The blocks hold '\n' bytes (Int(5) is 'i' 0x0a, and a string
// with a newline), which must not be taken for the end of a line, and a
// blank line between frames is still skipped.
func TestFramesBackToBack(t *testing.T) {
	first := []types.Row{{types.Int(5), types.Str("x\ny")}, {types.Int(-5), types.Str("\n\n")}}
	third := []types.Row{{types.Float(2.5)}, {types.Null}, {types.Int(5)}}
	var stream bytes.Buffer
	for _, m := range []any{
		&Response{OK: true, Columns: []string{"a", "b"}, Rows: first},
		&Response{OK: true, Text: "no rows here"},
		&Response{OK: true, Columns: []string{"a"}, Rows: third},
	} {
		if err := Write(&stream, m); err != nil {
			t.Fatal(err)
		}
		stream.WriteString("\n")
	}
	if n := bytes.Count(stream.Bytes(), []byte("\n")); n <= 6 {
		t.Fatalf("stream has %d newlines; the blocks were meant to add some", n)
	}
	r := NewReader(&stream)
	for i, want := range [][]types.Row{first, nil, third} {
		resp, err := r.ReadResponse()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got := resp.Rows
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d rows, want %d", i, len(got), len(want))
		}
		for j := range want {
			for k := range want[j] {
				if !sameConstant(want[j][k], got[j][k]) {
					t.Errorf("frame %d row %d: got %v, want %v", i, j, got[j], want[j])
				}
			}
		}
		if i == 1 && resp.Text != "no rows here" {
			t.Errorf("frame 1 text = %q", resp.Text)
		}
	}
	if _, err := r.ReadResponse(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

// TestRowsNeverReachJSON: the header line of a frame with rows carries
// their byte count and nothing of the rows.
func TestRowsNeverReachJSON(t *testing.T) {
	frame, err := EncodeFrame(&Response{OK: true, Rows: []types.Row{{types.Str("needle"), types.Int(7)}}})
	if err != nil {
		t.Fatal(err)
	}
	line, block, _ := bytes.Cut(frame, []byte("\n"))
	var head map[string]any
	if err := json.Unmarshal(line, &head); err != nil {
		t.Fatalf("header is not a JSON object: %v", err)
	}
	if _, ok := head["rows"]; ok || bytes.Contains(line, []byte("needle")) {
		t.Errorf("header carries rows: %s", line)
	}
	if n, ok := head["rowBytes"].(float64); !ok || int(n) != len(block) {
		t.Errorf("rowBytes = %v, block has %d bytes", head["rowBytes"], len(block))
	}
}

// lowerMaxFrame shrinks the frame limit for one test.
func lowerMaxFrame(t *testing.T, n int) {
	old := maxFrame
	maxFrame = n
	t.Cleanup(func() { maxFrame = old })
}

// TestFrameLimitEnforcedWhereBuilt: a frame over the limit is an error
// from EncodeFrame and nothing is written, where it used to be written in
// full for the peer to choke on; the reader refuses a header that
// announces more than the limit without reading the block.
func TestFrameLimitEnforcedWhereBuilt(t *testing.T) {
	lowerMaxFrame(t, 256)
	big := &Response{OK: true, Rows: []types.Row{{types.Str(strings.Repeat("x", 300))}}}
	var out bytes.Buffer
	if err := Write(&out, big); err == nil || out.Len() != 0 {
		t.Fatalf("Write of an oversized frame: err=%v, %d bytes written", err, out.Len())
	}
	if err := WriteTruncated(&out, big, 0.5); err == nil || out.Len() != 0 {
		t.Fatalf("WriteTruncated of an oversized frame: err=%v, %d bytes written", err, out.Len())
	}
	if err := Write(&out, &Response{OK: true, Text: strings.Repeat("x", 300)}); err == nil {
		t.Error("an oversized frame without rows was written")
	}
	fits := &Response{OK: true, Rows: []types.Row{{types.Str(strings.Repeat("x", 100))}}}
	if err := Write(&out, fits); err != nil {
		t.Fatalf("a frame under the limit: %v", err)
	}
	if resp, err := NewReader(&out).ReadResponse(); err != nil || len(resp.Rows) != 1 {
		t.Fatalf("a frame under the limit read back: %v %+v", err, resp)
	}

	over := fmt.Sprintf("{\"ok\":true,\"rowBytes\":%d}\n", 257)
	if _, err := NewReader(strings.NewReader(over + strings.Repeat("z", 257))).ReadResponse(); err == nil {
		t.Error("a header announcing more than the limit was accepted")
	}
	if _, err := NewReader(strings.NewReader("{\"ok\":true,\"rowBytes\":-1}\n")).ReadResponse(); err == nil {
		t.Error("a negative rowBytes was accepted")
	}
	long := "{\"ok\":true,\"text\":\"" + strings.Repeat("x", 64<<10) + "\"}\n"
	if _, err := NewReader(strings.NewReader(long)).ReadResponse(); err == nil {
		t.Error("a header line over the limit was accepted")
	}
}

// block builds a row block by hand.
func block(rows, cols uint64, values ...byte) []byte {
	b := binary.AppendUvarint(nil, rows)
	b = binary.AppendUvarint(b, cols)
	return append(b, values...)
}

func framed(block []byte) []byte {
	return append([]byte(fmt.Sprintf("{\"ok\":true,\"rowBytes\":%d}\n", len(block))), block...)
}

// TestBlockCountsAreOutsideInput: counts the bytes cannot hold, bytes
// left over, and a block shorter than announced are all errors.
func TestBlockCountsAreOutsideInput(t *testing.T) {
	for name, in := range map[string][]byte{
		"more rows than bytes":     framed(block(3, 1, 'z', 'z')),
		"more values than bytes":   framed(block(2, 2, 'z', 'z', 'z')),
		"2^40 rows":                framed(block(1<<40, 1, 'z')),
		"rows of no columns":       framed(block(3, 0, 'z', 'z', 'z')),
		"2^40 rows of nothing":     framed(block(1<<40, 0)),
		"2^62 columns":             framed(block(4, 1<<62, 'z')),
		"rows*cols overflows":      framed(block(1<<33, 1<<33, 'z')),
		"trailing bytes":           framed(block(1, 1, 'z', 'z')),
		"truncated varint":         framed(block(1, 1, 'i', 0x80)),
		"truncated float":          framed(block(1, 1, 'd', 1, 2, 3)),
		"string past the block":    framed(block(1, 1, 's', 9, 'a')),
		"unknown tag":              framed(block(1, 1, 'q')),
		"no counts":                framed([]byte{0x80}),
		"block cut short":          framed(block(2, 1, 'z', 'z'))[:len(framed(block(2, 1, 'z', 'z')))-1],
		"rowBytes past the stream": []byte("{\"ok\":true,\"rowBytes\":1000000}\nzz"),
	} {
		if resp, err := NewReader(bytes.NewReader(in)).ReadResponse(); err == nil {
			t.Errorf("%s: decoded to %+v", name, resp)
		}
		if resp, err := NewReader(bytes.NewReader(in)).ReadWrapperResponse(); err == nil {
			t.Errorf("%s: decoded to wrapper response %+v", name, resp)
		}
	}
	// What the reader refuses the writer does not build: rows of no
	// columns and rows of unequal width.
	for name, rows := range map[string][]types.Row{
		"rows of no columns":    {{}, {}},
		"rows of unequal width": {{types.Int(1)}, {types.Int(1), types.Int(2)}},
	} {
		if frame, err := EncodeFrame(&Response{OK: true, Rows: rows}); err == nil {
			t.Errorf("%s: framed as %q", name, frame)
		}
	}
}

// TestHugeClaimAllocatesLittle: a 20-byte input that claims 2^40 rows is
// refused having allocated next to nothing.
func TestHugeClaimAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	in := block(1<<40, 1, 'i', 2)
	for len(in) < 20 {
		in = append(in, 'z')
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBlock(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^40 rows in 20 bytes decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing the claim allocated %d bytes, want under 64 KiB", got)
	}
	// The same through a reader: its buffers are all it may cost.
	runtime.ReadMemStats(&before)
	_, err = NewReader(bytes.NewReader(framed(in))).ReadResponse()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2^40 rows in a 20-byte block read")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("reading and refusing the claim allocated %d bytes, want under 64 KiB", got)
	}
}

// TestFrameAllocCeiling: no allocation per row or per value on the row
// path. Encoding a 10 000-row, two-int answer allocates a constant, and
// so does decoding it: one slab of constants and one slice of rows. A
// reader of boxed [][]any allocated once per value.
func TestFrameAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const rows, cols = 10000, 2
	in := make([]types.Row, rows)
	for i := range in {
		in[i] = types.Row{types.Int(int64(i) + 1000), types.Int(int64(i) * 7919)}
	}
	resp := &Response{OK: true, Columns: []string{"a", "b"}, Rows: in}
	var frame []byte
	encode := testing.AllocsPerRun(10, func() {
		var err error
		if frame, err = EncodeFrame(resp); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 16 {
		t.Errorf("encoding %d rows made %.0f allocations, want a constant (at most 16)", rows, encode)
	}
	src := bytes.NewReader(frame)
	r := NewReader(src)
	decode := testing.AllocsPerRun(10, func() {
		src.Reset(frame)
		if got, err := r.ReadResponse(); err != nil || len(got.Rows) != rows {
			t.Fatalf("decode: %v", err)
		}
	})
	if decode > 16 {
		t.Errorf("decoding %d rows of %d ints made %.0f allocations, want a constant (at most 16)",
			rows, cols, decode)
	}
	t.Logf("allocations: encode %.0f, decode %.0f", encode, decode)
}

// BenchmarkFrame times one 10 000-row, two-int answer through EncodeFrame
// and through a Reader that keeps its buffers, the way a connection does.
func BenchmarkFrame(b *testing.B) {
	in := make([]types.Row, 10000)
	for i := range in {
		in[i] = types.Row{types.Int(int64(i)), types.Int(int64(i) * 37 % 5000)}
	}
	resp := &Response{OK: true, Columns: []string{"a", "b"}, Rows: in}
	frame, err := EncodeFrame(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeFrame(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		src := bytes.NewReader(frame)
		r := NewReader(src)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(frame)
			if _, err := r.ReadResponse(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
