package main

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"disco/internal/proto"
	"disco/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/table.golden")

// TestPrintTableGolden pins what the shell prints for an answer: ints
// as ints, floats in their shortest form, strings unquoted, null as
// <nil>, and the partial-answer footer.
func TestPrintTableGolden(t *testing.T) {
	rows := []types.Row{
		{types.Int(1234567), types.Float(3), types.Str("two words"), types.Bool(true)},
		{types.Int(math.MinInt64), types.Float(math.NaN()), types.Str(`say "hi"`), types.Bool(false)},
		{types.Int(0), types.Float(1234567), types.Str(""), types.Null},
		{types.Null, types.Float(-2.5), types.Str("it's"), types.Int(-7)},
		{types.Int(42), types.Float(math.Inf(-1)), types.Null, types.Float(math.Copysign(0, -1))},
	}
	resp := &proto.Response{OK: true, Columns: []string{"id", "Parts.weight", "name", "flag"},
		Rows: rows, ElapsedMS: 12.25, Partial: true, Excluded: []string{"suppliers", "inspections"}}
	got := captureStdout(t, func() { printTable(resp) })
	path := filepath.Join("testdata", "table.golden")
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
		t.Errorf("table drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

// captureStdout runs f with standard output redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	stdout := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = stdout
	w.Close()
	return <-out
}
