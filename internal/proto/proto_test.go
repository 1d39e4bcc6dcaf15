package proto

import (
	"bytes"
	"io"
	"testing"

	"disco/internal/types"
)

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []*Request{
		{Op: "ping"},
		{Op: "query", SQL: "SELECT * FROM T"},
		{Op: "explain", SQL: "SELECT x FROM T WHERE a = 'multi\nline'"},
	}
	for _, r := range reqs {
		if err := Write(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	for _, want := range reqs {
		got, err := rd.ReadRequest()
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != want.Op || got.SQL != want.SQL {
			t.Errorf("got %+v, want %+v", got, want)
		}
	}
	if _, err := rd.ReadRequest(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	resp := &Response{
		OK:        true,
		Columns:   []string{"a", "b"},
		Rows:      []types.Row{{types.Int(1), types.Str("x")}},
		ElapsedMS: 12.5,
	}
	if err := Write(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || len(got.Rows) != 1 || got.ElapsedMS != 12.5 {
		t.Errorf("got %+v", got)
	}
	if got.Rows[0][0].AsInt() != 1 {
		t.Errorf("int round-trip = %v", got.Rows[0][0])
	}
	if got.Rows[0][1].AsString() != "x" {
		t.Errorf("string round-trip = %v", got.Rows[0][1])
	}
}

func TestEncodeDecodeConstants(t *testing.T) {
	cases := []types.Constant{
		types.Int(42), types.Float(2.5), types.Str("hello"),
		types.Bool(true), types.Null,
	}
	for _, c := range cases {
		enc := EncodeConstant(c)
		dec := DecodeConstant(enc)
		if c.IsNull() {
			if !dec.IsNull() {
				t.Errorf("null round-trip = %v", dec)
			}
			continue
		}
		if !dec.Equal(c) {
			t.Errorf("round-trip %v -> %v -> %v", c, enc, dec)
		}
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte("\n\n{\"op\":\"ping\"}\n")))
	req, err := rd.ReadRequest()
	if err != nil || req.Op != "ping" {
		t.Errorf("req = %+v, %v", req, err)
	}
}

func TestReaderBadJSON(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte("{bogus\n")))
	if _, err := rd.ReadRequest(); err == nil {
		t.Error("bad JSON should fail")
	}
}
