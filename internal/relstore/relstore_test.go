package relstore

import (
	"math"
	"testing"

	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

func bookSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "Book", Type: types.KindInt},
		types.Field{Name: "author", Collection: "Book", Type: types.KindInt},
		types.Field{Name: "year", Collection: "Book", Type: types.KindInt},
	)
}

func loadBooks(t *testing.T, s *Store, n int) *Table {
	t.Helper()
	tb, err := s.CreateTable("Book", bookSchema(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{types.Int(int64(i)), types.Int(int64(i % 100)), types.Int(int64(1900 + i%100))}
		if err := tb.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.CreateHashIndex("author"); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTableBasics(t *testing.T) {
	s := Open(DefaultConfig())
	tb := loadBooks(t, s, 1000)
	if tb.Count() != 1000 {
		t.Errorf("Count = %d", tb.Count())
	}
	// 8192/64 = 128 rows per page -> 8 pages.
	if tb.PageCount() != 8 {
		t.Errorf("PageCount = %d, want 8", tb.PageCount())
	}
	ext := tb.ExtentStats()
	if ext.CountObject != 1000 || ext.TotalSize != 8*8192 || ext.ObjectSize != 64 {
		t.Errorf("extent = %+v", ext)
	}
	if !tb.HasIndex("author") || tb.HasIndex("year") {
		t.Error("index flags wrong")
	}
	if got := s.Tables(); len(got) != 1 || got[0] != "Book" {
		t.Errorf("Tables = %v", got)
	}
}

func TestCreateAndInsertErrors(t *testing.T) {
	s := Open(DefaultConfig())
	if _, err := s.CreateTable("x", nil, 0); err == nil {
		t.Error("nil schema should fail")
	}
	tb := loadBooks(t, s, 10)
	if _, err := s.CreateTable("Book", bookSchema(), 0); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := tb.Insert(types.Row{types.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tb.CreateHashIndex("bogus"); err == nil {
		t.Error("index on unknown attr should fail")
	}
	if err := tb.CreateHashIndex("author"); err == nil {
		t.Error("duplicate index should fail")
	}
	var m netsim.Meter
	if _, err := tb.Probe(&m, "year", stats.CmpEQ, types.Int(1900)); err == nil {
		t.Error("probe without index should fail")
	}
	if _, err := tb.Probe(&m, "author", stats.CmpLT, types.Int(5)); err == nil {
		t.Error("hash probe with range op should fail")
	}
}

func TestScanCost(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	s := Open(cfg)
	tb := loadBooks(t, s, 1024) // 8 pages
	it := tb.Scan(&m)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 1024 {
		t.Fatalf("rows = %d", n)
	}
	want := 8*cfg.IOTimeMS + 1024*cfg.CPUTimeMS
	if got := m.MS(); math.Abs(got-want) > 1e-9 {
		t.Errorf("scan cost = %v, want %v", got, want)
	}
	// Second scan: pages cached, only CPU.
	m = netsim.Meter{}
	it = tb.Scan(&m)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	want = 1024 * cfg.CPUTimeMS
	if got := m.MS(); math.Abs(got-want) > 1e-9 {
		t.Errorf("warm scan cost = %v, want %v", got, want)
	}
	s.ResetBuffer()
	m = netsim.Meter{}
	it = tb.Scan(&m)
	it.Next()
	if got := m.MS(); got < cfg.IOTimeMS {
		t.Errorf("after ResetBuffer the first page should fault again: %v", got)
	}
}

func TestHashProbe(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	s := Open(cfg)
	tb := loadBooks(t, s, 1000)
	rows, err := tb.Probe(&m, "author", stats.CmpEQ, types.Int(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 1000 rows, author = i%100
		t.Errorf("probe matched %d rows, want 10", len(rows))
	}
	for i, row := range rows {
		if row[0].AsInt() != int64(42+100*i) || row[1].AsInt() != 42 {
			t.Fatalf("probe row %d = %v", i, row)
		}
	}
	// Rows 42, 142, ..., 942 lie on 8 of the 8 pages (128 rows a page).
	want := cfg.HashProbeMS + 8*cfg.IOTimeMS + 10*cfg.CPUTimeMS
	if math.Abs(m.MS()-want) > 1e-9 {
		t.Errorf("cold probe cost = %v, want %v", m.MS(), want)
	}
	// Probe for an absent key yields nothing and charges the probe.
	m = netsim.Meter{}
	rows, err = tb.Probe(&m, "author", stats.CmpEQ, types.Int(4242))
	if err != nil || rows != nil {
		t.Errorf("absent key matched %v, %v", rows, err)
	}
	if m.MS() != cfg.HashProbeMS {
		t.Errorf("absent-key probe cost = %v, want %v", m.MS(), cfg.HashProbeMS)
	}
}

func TestInsertMaintainsIndex(t *testing.T) {
	s := Open(DefaultConfig())
	tb := loadBooks(t, s, 10)
	if err := tb.Insert(types.Row{types.Int(100), types.Int(7), types.Int(1950)}); err != nil {
		t.Fatal(err)
	}
	var m netsim.Meter
	rows, err := tb.Probe(&m, "author", stats.CmpEQ, types.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // row 7 from the load plus the new one
		t.Errorf("index probe after insert = %d rows, want 2", len(rows))
	}
}

func TestAttributeStats(t *testing.T) {
	s := Open(DefaultConfig())
	tb := loadBooks(t, s, 1000)
	ast, err := tb.AttributeStats("author")
	if err != nil {
		t.Fatal(err)
	}
	if !ast.Indexed || ast.CountDistinct != 100 ||
		ast.Min.AsInt() != 0 || ast.Max.AsInt() != 99 {
		t.Errorf("stats = %+v", ast)
	}
	if _, err := tb.AttributeStats("bogus"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestDeliverOutput(t *testing.T) {
	var m netsim.Meter
	Open(DefaultConfig()).DeliverOutput(&m, 10)
	if m.MS() != 15 {
		t.Errorf("output = %v, want 15", m.MS())
	}
}

// scanRows drains a sequential iterator charging m.
func scanRows(m *netsim.Meter, tb *Table) []types.Row {
	var rows []types.Row
	it := tb.Scan(m)
	for {
		row, ok := it.Next()
		if !ok {
			return rows
		}
		rows = append(rows, row)
	}
}

// ReadAll charges exactly what a Scan iterator charges, bit for bit, on
// an empty table, a partial last page, a cold and a warm cache, and a
// cache too small to hold the table (3 pages of 8, so the warm pass
// evicts LRU and faults every page again); it returns the table's own
// rows with the capacity pinned.
func TestReadAllChargesLikeScan(t *testing.T) {
	for _, n := range []int{0, 1000, 1024} {
		for _, bufPages := range []int{512, 3} {
			cfg := DefaultConfig()
			cfg.BufferPages = bufPages
			var iterM, readM netsim.Meter
			iterTb := loadBooks(t, Open(cfg), n)
			readTb := loadBooks(t, Open(cfg), n)
			for pass := 0; pass < 2; pass++ { // cold, then warm
				want := scanRows(&iterM, iterTb)
				got := readTb.ReadAll(&readM)
				if math.Float64bits(readM.MS()) != math.Float64bits(iterM.MS()) {
					t.Errorf("n=%d buffer=%d pass %d: ReadAll charged %v, Scan %v",
						n, bufPages, pass, readM.MS(), iterM.MS())
				}
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("n=%d: ReadAll len %d cap %d, Scan %d rows", n, len(got), cap(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) || &got[i][0] != &readTb.rows[i][0] {
						t.Fatalf("n=%d row %d: %v is not the table's row %v", n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The read path's allocation gates: ReadAll hands out the table's own
// rows, a warm probe allocates its answer and nothing else, and charging
// the meter allocates nothing.
func TestStoreReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := Open(DefaultConfig())
	tb := loadBooks(t, s, 1024) // 8 pages
	var m netsim.Meter
	tb.ReadAll(&m) // warm the pool
	if n := testing.AllocsPerRun(20, func() { tb.ReadAll(&m) }); n != 0 {
		t.Errorf("ReadAll allocates %v times", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := tb.Probe(&m, "author", stats.CmpEQ, types.Int(42)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a warm probe allocates %v times, want 1 (its answer)", n)
	}
	if n := testing.AllocsPerRun(20, func() { m.Add(1); m.AddN(0.5, 3) }); n != 0 {
		t.Errorf("a meter charge allocates %v times", n)
	}
}

// Count reports the number of rows.
func (t *Table) Count() int { return len(t.rows) }
