package proto

import (
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disco/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFramesGolden pins the wire bytes of a Response frame and of a
// WrapperResponse frame that carry every kind of value at its edges.
// Any discod, discoctl, discoload or wrapperd built from this tree reads
// and writes exactly these bytes, so builds of different versions
// interoperate as long as the file does not change.
func TestFramesGolden(t *testing.T) {
	values := types.Row{
		types.Int(math.MaxInt64), types.Int(math.MinInt64), types.Int(1<<53 + 1),
		types.Float(2), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
		types.Str(""), types.Str("a\nb\x00c"), types.Null, types.Bool(true), types.Bool(false),
	}
	reversed := make(types.Row, len(values))
	for i, v := range values {
		reversed[len(values)-1-i] = v
	}
	rows := []types.Row{values, reversed}
	columns := make([]string, len(values))
	for i := range columns {
		columns[i] = "c" + string(rune('a'+i))
	}
	var b strings.Builder
	for _, m := range []struct {
		name string
		msg  any
	}{
		{"Response", &Response{OK: true, Columns: columns, Rows: rows, ElapsedMS: 1.5,
			Partial: true, Excluded: []string{"w"}}},
		{"WrapperResponse", &WrapperResponse{OK: true, Rows: rows, Bytes: 9, VirtualMS: 2.25}},
	} {
		frame, err := EncodeFrame(m.msg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		b.WriteString(m.name + " " + hex.EncodeToString(frame) + "\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "frames.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("frames drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}
