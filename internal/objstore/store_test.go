package objstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

func partsSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Collection: "AtomicParts", Type: types.KindInt},
		types.Field{Name: "buildDate", Collection: "AtomicParts", Type: types.KindInt},
		types.Field{Name: "x", Collection: "AtomicParts", Type: types.KindInt},
	)
}

// loadParts creates an AtomicParts-shaped collection with n objects whose
// ids are inserted in shuffled order (scattered placement) or in id order
// (clustered).
func loadParts(t *testing.T, s *Store, n int, shuffled bool) *Collection {
	t.Helper()
	c, err := s.CreateCollection("AtomicParts", partsSchema(), 56)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if shuffled {
		rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	for _, id := range order {
		row := types.Row{types.Int(int64(id)), types.Int(int64(id % 1000)), types.Int(int64(id * 3))}
		if err := c.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateIndex("id", !shuffled); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPagePacking(t *testing.T) {
	s := Open(DefaultConfig())
	c := loadParts(t, s, 70000, false)
	// 4096*0.96/56 = 70 objects per page -> exactly 1000 pages: the
	// paper's AtomicParts layout.
	if c.PageCount() != 1000 {
		t.Errorf("pages = %d, want 1000", c.PageCount())
	}
	ext := c.ExtentStats()
	if ext.CountObject != 70000 || ext.TotalSize != 4096000 || ext.ObjectSize != 56 {
		t.Errorf("extent = %+v", ext)
	}
}

func TestCreateErrors(t *testing.T) {
	s := Open(DefaultConfig())
	if _, err := s.CreateCollection("c", nil, 0); err == nil {
		t.Error("nil schema should fail")
	}
	c, err := s.CreateCollection("c", partsSchema(), 56)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateCollection("c", partsSchema(), 56); err == nil {
		t.Error("duplicate collection should fail")
	}
	if err := c.Insert(types.Row{types.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := c.CreateIndex("bogus", false); err == nil {
		t.Error("index on unknown attribute should fail")
	}
	if err := c.CreateIndex("id", false); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("id", false); err == nil {
		t.Error("duplicate index should fail")
	}
	var m netsim.Meter
	if _, err := c.IndexScan(&m, "x", stats.CmpEQ, types.Int(1)); err == nil {
		t.Error("index scan without index should fail")
	}
	if _, err := c.IndexScan(&m, "id", stats.CmpNE, types.Int(1)); err == nil {
		t.Error("index scan with <> should fail")
	}
}

func TestSeqScanCostAndResults(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	s := Open(cfg)
	c := loadParts(t, s, 7000, true) // 100 pages
	it := c.SeqScan(&m)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 7000 {
		t.Fatalf("scanned %d rows", n)
	}
	elapsed := m.MS()
	want := 100*cfg.IOTimeMS + 7000*cfg.CPUTimeMS
	if math.Abs(elapsed-want) > 1e-6 {
		t.Errorf("seq scan time = %v, want %v", elapsed, want)
	}
}

func TestIndexScanExactCost(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	cfg.BufferPages = 2000 // hold the whole collection
	s := Open(cfg)
	c := loadParts(t, s, 7000, true)
	s.ResetBuffer()
	it, err := c.IndexScan(&m, "id", stats.CmpEQ, types.Int(4242))
	if err != nil {
		t.Fatal(err)
	}
	row, ok := it.Next()
	if !ok || row[0].AsInt() != 4242 {
		t.Fatalf("index probe = %v, %v", row, ok)
	}
	if _, ok := it.Next(); ok {
		t.Error("unique probe should yield one row")
	}
	elapsed := m.MS()
	want := cfg.IOTimeMS + cfg.CPUTimeMS + cfg.ProbeTimeMS
	if math.Abs(elapsed-want) > 1e-9 {
		t.Errorf("probe time = %v, want %v", elapsed, want)
	}
}

// TestIndexScanYaoShape is the physical heart of the Figure 12
// reproduction: an index range scan over shuffled placement touches
// distinct pages according to Yao's function, so measured time is
// IO*CountPage*Yao(sel) + per-object costs — strictly concave in the
// midrange, not linear.
func TestIndexScanYaoShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPages = 1200
	cfg.CPUTimeMS = 0 // isolate the I/O component
	cfg.ProbeTimeMS = 0
	s := Open(cfg)
	n := 70000
	c := loadParts(t, s, n, true)

	measure := func(sel float64) float64 {
		s.ResetBuffer()
		var m netsim.Meter
		it, err := c.IndexScan(&m, "id", stats.CmpLT, types.Int(int64(sel*float64(n))))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		return m.MS()
	}

	for _, sel := range []float64{0.01, 0.05, 0.1, 0.3, 0.5} {
		got := measure(sel)
		k := int64(sel * float64(n))
		wantPages := stats.Yao(int64(n), int64(c.PageCount()), k) * float64(c.PageCount())
		want := wantPages * cfg.IOTimeMS
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("sel=%.2f: measured %.0f ms, Yao predicts %.0f ms", sel, got, want)
		}
		linear := sel * float64(c.PageCount()) * cfg.IOTimeMS
		if sel >= 0.05 && got < 1.5*linear {
			t.Errorf("sel=%.2f: measured %.0f not clearly above linear model %.0f", sel, got, linear)
		}
	}
}

func TestClusteredIndexScanIsLinear(t *testing.T) {
	// With id-ordered placement the same range scan touches only
	// contiguous pages: cost is linear in selectivity — the clustering
	// effect §5 says calibration cannot capture.
	var m netsim.Meter
	cfg := DefaultConfig()
	cfg.BufferPages = 1200
	cfg.CPUTimeMS = 0
	cfg.ProbeTimeMS = 0
	s := Open(cfg)
	c := loadParts(t, s, 70000, false)

	s.ResetBuffer()
	it, _ := c.IndexScan(&m, "id", stats.CmpLT, types.Int(7000)) // sel 0.1
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	elapsed := m.MS()
	want := 100 * cfg.IOTimeMS // 10% of 1000 pages
	if math.Abs(elapsed-want)/want > 0.05 {
		t.Errorf("clustered scan = %v ms, want ~%v", elapsed, want)
	}
}

func TestBufferEviction(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	cfg.BufferPages = 10 // much smaller than the collection
	s := Open(cfg)
	c := loadParts(t, s, 7000, true) // 100 pages
	// Two sequential scans: with only 10 buffer pages the second scan
	// re-faults every page.
	for range [2]int{} {
		it := c.SeqScan(&m)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	_, misses := s.BufferStats()
	if misses != 200 {
		t.Errorf("misses = %d, want 200 (no reuse across scans)", misses)
	}
}

func TestDeliverOutput(t *testing.T) {
	var m netsim.Meter
	s := Open(DefaultConfig())
	s.DeliverOutput(&m, 100)
	if got := m.MS(); got != 900 {
		t.Errorf("output cost = %v, want 900", got)
	}
}

func TestAttributeStatsExport(t *testing.T) {
	s := Open(DefaultConfig())
	c := loadParts(t, s, 7000, true)
	ast, err := c.AttributeStats("id")
	if err != nil {
		t.Fatal(err)
	}
	if !ast.Indexed || ast.Clustered {
		t.Errorf("index flags = %+v", ast)
	}
	if ast.CountDistinct != 7000 || ast.Min.AsInt() != 0 || ast.Max.AsInt() != 6999 {
		t.Errorf("stats = %+v", ast)
	}
	// buildDate has 1000 distinct values and no index.
	bd, err := c.AttributeStats("buildDate")
	if err != nil {
		t.Fatal(err)
	}
	if bd.Indexed || bd.CountDistinct != 1000 {
		t.Errorf("buildDate stats = %+v", bd)
	}
	if _, err := c.AttributeStats("bogus"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestCollectionsListing(t *testing.T) {
	s := Open(DefaultConfig())
	loadParts(t, s, 70, false)
	if _, ok := s.Collection("AtomicParts"); !ok {
		t.Error("collection lookup failed")
	}
	if got := s.Collections(); len(got) != 1 || got[0] != "AtomicParts" {
		t.Errorf("Collections = %v", got)
	}
}

func TestBufferLRUKeepsHotPages(t *testing.T) {
	var m netsim.Meter
	cfg := DefaultConfig()
	cfg.BufferPages = 2
	s := Open(cfg)
	c := loadParts(t, s, 70*3, true) // 3 pages
	s.ResetBuffer()
	// Touch page 0 repeatedly while cycling pages 1 and 2: page 0 stays
	// resident because each access refreshes it.
	probe := func(id int64) {
		it, err := c.IndexScan(&m, "id", stats.CmpEQ, types.Int(id))
		if err != nil {
			t.Fatal(err)
		}
		it.Next()
	}
	// Find one id per page by scanning placement.
	var idByPage [3]int64
	seen := 0
	itAll := c.SeqScan(&m)
	for p := 0; p < 3; p++ {
		for i := 0; i < 70; i++ {
			row, ok := itAll.Next()
			if !ok {
				break
			}
			if i == 0 {
				idByPage[p] = row[0].AsInt()
				seen++
			}
		}
	}
	if seen != 3 {
		t.Fatal("expected 3 pages")
	}
	s.ResetBuffer()
	probe(idByPage[0]) // miss, cache p0
	probe(idByPage[1]) // miss, cache p1
	probe(idByPage[0]) // hit, refresh p0
	probe(idByPage[2]) // miss, evict p1 (LRU), keep p0
	hits, _ := s.BufferStats()
	probe(idByPage[0]) // must still be a hit
	hits2, _ := s.BufferStats()
	if hits2 != hits+1 {
		t.Errorf("page 0 should stay resident under LRU: hits %d -> %d", hits, hits2)
	}
}

// ReadAll charges exactly what a SeqScan charges — clock bit for bit and
// buffer-pool hits and misses — on an empty extent, a partial last page,
// a cold and a warm pool, and a pool smaller than the extent.
func TestReadAllChargesLikeSeqScan(t *testing.T) {
	for _, n := range []int{0, 6999, 7000} {
		for _, bufPages := range []int{256, 40} {
			cfg := DefaultConfig()
			cfg.BufferPages = bufPages
			var iterM, readM netsim.Meter
			iterStore, readStore := Open(cfg), Open(cfg)
			iterColl := loadParts(t, iterStore, n, true)
			readColl := loadParts(t, readStore, n, true)
			for pass := 0; pass < 2; pass++ { // cold, then warm
				var want []types.Row
				it := iterColl.SeqScan(&iterM)
				for row, ok := it.Next(); ok; row, ok = it.Next() {
					want = append(want, row)
				}
				got := readColl.ReadAll(&readM)
				if math.Float64bits(readM.MS()) != math.Float64bits(iterM.MS()) {
					t.Errorf("n=%d buffer=%d pass %d: ReadAll clock %v, SeqScan clock %v",
						n, bufPages, pass, readM.MS(), iterM.MS())
				}
				ih, im := iterStore.BufferStats()
				rh, rm := readStore.BufferStats()
				if ih != rh || im != rm {
					t.Errorf("n=%d buffer=%d pass %d: ReadAll hits/misses %d/%d, SeqScan %d/%d",
						n, bufPages, pass, rh, rm, ih, im)
				}
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("n=%d: ReadAll len %d cap %d, SeqScan %d rows", n, len(got), cap(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("n=%d row %d: %v, SeqScan %v", n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// IndexSelect returns what draining IndexScan returns, in the same
// order, and charges the same: clock bit for bit and buffer-pool hits and
// misses, for every range operator, on unique and duplicate keys, on
// clustered and scattered placement, from a cold and a warm pool smaller
// than the extent.
func TestIndexSelectMatchesIndexIter(t *testing.T) {
	ops := []stats.CmpOp{stats.CmpEQ, stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE}
	for _, shuffled := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.BufferPages = 40
		var iterM, selM netsim.Meter
		iterStore, selStore := Open(cfg), Open(cfg)
		iterColl := loadParts(t, iterStore, 7000, shuffled)
		selColl := loadParts(t, selStore, 7000, shuffled)
		for _, c := range []*Collection{iterColl, selColl} {
			if err := c.CreateIndex("buildDate", false); err != nil {
				t.Fatal(err)
			}
		}
		for _, attr := range []string{"id", "buildDate"} {
			for _, op := range ops {
				for _, v := range []int64{-1, 0, 421, 3500, 6999, 7000} {
					iterStore.ResetBuffer()
					selStore.ResetBuffer()
					for _, pass := range []string{"cold", "warm"} {
						it, err := iterColl.IndexScan(&iterM, attr, op, types.Int(v))
						if err != nil {
							t.Fatal(err)
						}
						var want []types.Row
						for row, ok := it.Next(); ok; row, ok = it.Next() {
							want = append(want, row)
						}
						got, err := selColl.IndexSelect(&selM, attr, op, types.Int(v))
						if err != nil {
							t.Fatal(err)
						}
						where := func() string {
							return fmt.Sprintf("shuffled=%v %s %s %d (%s)", shuffled, attr, op, v, pass)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d rows, IndexIter %d", where(), len(got), len(want))
						}
						for i := range got {
							if !got[i].Equal(want[i]) {
								t.Fatalf("%s: row %d = %v, IndexIter %v", where(), i, got[i], want[i])
							}
						}
						if math.Float64bits(selM.MS()) != math.Float64bits(iterM.MS()) {
							t.Fatalf("%s: clock %v, IndexIter %v", where(), selM.MS(), iterM.MS())
						}
						ih, im := iterStore.BufferStats()
						sh, sm := selStore.BufferStats()
						if ih != sh || im != sm {
							t.Fatalf("%s: hits/misses %d/%d, IndexIter %d/%d", where(), sh, sm, ih, im)
						}
					}
				}
			}
		}
	}
}

// Readers on several goroutines share one buffer pool, each charging its
// own meter: every answer matches a sequential read, and the pool counts
// each page access exactly once (run under -race, this is the pool's
// concurrency check).
func TestConcurrentReadsSharePool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferPages = 30
	s := Open(cfg)
	c := loadParts(t, s, 7000, true) // 100 pages
	var m netsim.Meter
	want, err := c.IndexSelect(&m, "id", stats.CmpLT, types.Int(2500))
	if err != nil {
		t.Fatal(err)
	}
	s.ResetBuffer()
	const readers, rounds = 4, 20
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m netsim.Meter
			for i := 0; i < rounds; i++ {
				got, err := c.IndexSelect(&m, "id", stats.CmpLT, types.Int(2500))
				if err != nil || len(got) != len(want) {
					t.Errorf("index read: %d rows, %v; want %d", len(got), err, len(want))
					return
				}
				for j := range got {
					if !got[j].Equal(want[j]) {
						t.Errorf("index read row %d = %v, want %v", j, got[j], want[j])
						return
					}
				}
				if n := len(c.ReadAll(&m)); n != 7000 {
					t.Errorf("ReadAll read %d rows", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := s.BufferStats()
	if total := int64(readers * rounds * (len(want) + 100)); hits+misses != total {
		t.Errorf("hits %d + misses %d != %d page accesses", hits, misses, total)
	}
}

// The read path's allocation gates: ReadAll hands out the store's own
// rows, a pool miss that evicts reuses the evicted frame, and an index
// read allocates its answer and nothing else beyond its pooled RID
// buffer; charging the meter allocates nothing. The collector is off
// while measuring, so the pool keeps that buffer.
func TestStoreReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := DefaultConfig()
	cfg.BufferPages = 10
	s := Open(cfg)
	c := loadParts(t, s, 7000, true) // 100 pages
	var m netsim.Meter
	if n := testing.AllocsPerRun(20, func() { c.ReadAll(&m) }); n != 0 {
		t.Errorf("ReadAll allocates %v times", n)
	}
	var page int32
	_, before := s.BufferStats()
	if n := testing.AllocsPerRun(200, func() { c.touch(&m, page%100); page++ }); n != 0 {
		t.Errorf("a pool miss allocates %v times", n)
	}
	if _, after := s.BufferStats(); after-before != 201 {
		t.Errorf("%d of 201 cycling touches missed", after-before)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := c.IndexSelect(&m, "id", stats.CmpLT, types.Int(3000)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("an index read allocates %v times, want 1 (its answer)", n)
	}
}

// BufferStats reports buffer pool hits and misses since the last reset.
func (s *Store) BufferStats() (hits, misses int64) { return s.buf.Stats() }
