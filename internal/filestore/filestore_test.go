package filestore

import (
	"math"
	"testing"

	"disco/internal/netsim"
	"disco/internal/types"
)

func docSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "Doc", Type: types.KindInt},
		types.Field{Name: "title", Collection: "Doc", Type: types.KindString},
		types.Field{Name: "score", Collection: "Doc", Type: types.KindFloat},
		types.Field{Name: "public", Collection: "Doc", Type: types.KindBool},
	)
}

func TestAppendAndScan(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	s := Open(cfg)
	f, err := s.CreateFile("Doc", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []types.Row{
		{types.Int(1), types.Str("intro to mediators"), types.Float(4.5), types.Bool(true)},
		{types.Int(2), types.Str("cost models"), types.Float(3.25), types.Bool(false)},
		{types.Int(3), types.Str("wrappers"), types.Float(5), types.Bool(true)},
	} {
		if err := f.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	it := f.Scan(&m)
	var rows []types.Row
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	if len(rows) != 3 {
		t.Fatalf("scanned %d", len(rows))
	}
	if rows[0][1].AsString() != "intro to mediators" || rows[1][2].AsFloat() != 3.25 || !rows[2][3].AsBool() {
		t.Errorf("scanned %v", rows)
	}
	want := cfg.OpenMS + 3*cfg.ReadRecordMS
	if got := m.MS(); math.Abs(got-want) > 1e-9 {
		t.Errorf("scan cost = %v, want %v", got, want)
	}
}

func TestCreateAppendErrors(t *testing.T) {
	s := Open(DefaultConfig())
	if _, err := s.CreateFile("x", nil); err == nil {
		t.Error("nil schema should fail")
	}
	f, err := s.CreateFile("Doc", docSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFile("Doc", docSchema()); err == nil {
		t.Error("duplicate file should fail")
	}
	if err := f.Append(types.Row{types.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := f.Append(types.Row{types.Int(1), types.Str("t"), types.Float(1), types.Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Files(); len(got) != 1 || got[0] != "Doc" {
		t.Errorf("Files = %v", got)
	}
	if _, ok := s.File("Doc"); !ok {
		t.Error("File lookup failed")
	}
}

func TestDeliverOutput(t *testing.T) {
	var m netsim.Meter
	Open(DefaultConfig()).DeliverOutput(&m, 5)
	if m.MS() != 10 {
		t.Errorf("output = %v, want 10", m.MS())
	}
}

// ReadAll charges exactly what a Scan iterator charges, bit for bit (the
// open even on an empty file), and returns the file's own records with
// the capacity pinned.
func TestReadAllChargesLikeScan(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		var iterM, readM netsim.Meter
		files := make([]*File, 2)
		for i := range files {
			f, err := Open(DefaultConfig()).CreateFile("Doc", docSchema())
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < n; id++ {
				if err := f.Append(types.Row{types.Int(int64(id)), types.Str("t"), types.Float(0.5), types.Bool(true)}); err != nil {
					t.Fatal(err)
				}
			}
			files[i] = f
		}
		var want []types.Row
		it := files[0].Scan(&iterM)
		for row, ok := it.Next(); ok; row, ok = it.Next() {
			want = append(want, row)
		}
		got := files[1].ReadAll(&readM)
		if math.Float64bits(readM.MS()) != math.Float64bits(iterM.MS()) {
			t.Errorf("n=%d: ReadAll charged %v, Scan %v", n, readM.MS(), iterM.MS())
		}
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("n=%d: ReadAll len %d cap %d, Scan %d records", n, len(got), cap(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) || &got[i][0] != &files[1].rows[i][0] {
				t.Fatalf("n=%d record %d: %v is not the file's record %v", n, i, got[i], want[i])
			}
		}
	}
}
