package objstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

// keyedSchema is a key column and a payload column.
func keyedSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Collection: "K", Name: "k", Type: types.KindInt},
		types.Field{Collection: "K", Name: "p", Type: types.KindInt},
	)
}

// indexPair loads keys into two fresh stores: one collection indexed
// afterwards by CreateIndex's sorted build, one indexed while empty so
// that every key goes through BTree.Insert.
func indexPair(t *testing.T, keys []types.Constant) (sorted, inserted *Collection) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BufferPages = 8
	mk := func(indexFirst bool) *Collection {
		c, err := Open(cfg).CreateCollection("K", keyedSchema(), 256)
		if err != nil {
			t.Fatal(err)
		}
		if indexFirst {
			if err := c.CreateIndex("k", false); err != nil {
				t.Fatal(err)
			}
		}
		for i, k := range keys {
			if err := c.Insert(types.Row{k, types.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if !indexFirst {
			if err := c.CreateIndex("k", false); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return mk(false), mk(true)
}

// entries drains an iterator, keys compared by kind and payload.
func entries(it *TreeIter) []Entry {
	var out []Entry
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		out = append(out, e)
	}
	return out
}

var allOps = []stats.CmpOp{stats.CmpEQ, stats.CmpNE, stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE}

// sameIndex checks that the two collections' indexes hold the same
// entries, answer every range over probes alike, and that IndexSelect
// returns the same rows, charges the same meter bits and hits the pool
// alike.
func sameIndex(t *testing.T, label string, sorted, inserted *Collection, probes []types.Constant) {
	t.Helper()
	a, b := sorted.indexes["k"].tree, inserted.indexes["k"].tree
	for name, tree := range map[string]*BTree{"sorted": a, "inserted": b} {
		if err := tree.check(); err != nil {
			t.Fatalf("%s: %s tree: %v", label, name, err)
		}
	}
	if ea, eb := entries(a.ScanAll()), entries(b.ScanAll()); !slices.Equal(ea, eb) {
		t.Fatalf("%s: ScanAll differs: %d entries against %d", label, len(ea), len(eb))
	}
	sorted.store.ResetBuffer()
	inserted.store.ResetBuffer()
	for _, v := range probes {
		for _, op := range allOps {
			ia, ib := a.seek(op, v), b.seek(op, v)
			ra, rb := ia.appendRIDs(nil), ib.appendRIDs(nil)
			if !slices.Equal(ra, rb) || ia.Steps != ib.Steps {
				t.Fatalf("%s: k %v %v: sorted build gives %d RIDs (%d steps), inserts %d (%d steps)",
					label, op, v, len(ra), ia.Steps, len(rb), ib.Steps)
			}
			if op == stats.CmpNE {
				continue
			}
			var ma, mb netsim.Meter
			rowsA, errA := sorted.IndexSelect(&ma, "k", op, v)
			rowsB, errB := inserted.IndexSelect(&mb, "k", op, v)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !reflect.DeepEqual(rowsA, rowsB) || math.Float64bits(ma.MS()) != math.Float64bits(mb.MS()) {
				t.Fatalf("%s: IndexSelect k %v %v: %d rows %v ms against %d rows %v ms",
					label, op, v, len(rowsA), ma.MS(), len(rowsB), mb.MS())
			}
		}
	}
	ha, ma := sorted.store.BufferStats()
	hb, mb := inserted.store.BufferStats()
	if ha != hb || ma != mb {
		t.Fatalf("%s: pool hits/misses %d/%d against %d/%d", label, ha, ma, hb, mb)
	}
}

// TestSortedIndexBuildMatchesInserts: an index built from one sort is
// the index inserting its keys one by one builds, for int, string and
// mixed int/float keys with duplicates, placed shuffled or clustered,
// and stays so under further inserts that split its leaves.
func TestSortedIndexBuildMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Each generator draws from n values; the inserts after the build
	// draw from 3n, so they add keys and split leaves.
	gens := []struct {
		name string
		gen  func(n int64) types.Constant
	}{
		{"int", func(n int64) types.Constant { return types.Int(rng.Int63n(n) - 300) }},
		{"string", func(n int64) types.Constant { return types.Str(fmt.Sprintf("s%05d", rng.Int63n(n))) }},
		{"mixed int/float", func(n int64) types.Constant {
			k := rng.Int63n(n / 2)
			switch rng.Intn(3) {
			case 0:
				return types.Int(k)
			case 1:
				return types.Float(float64(k))
			default:
				return types.Float(float64(k) + 0.5)
			}
		}},
		{"wide int", func(int64) types.Constant {
			return types.Int([]int64{math.MinInt64, math.MaxInt64, 0, rng.Int63(), -rng.Int63()}[rng.Intn(5)])
		}},
	}
	for _, g := range gens {
		for _, placement := range []string{"shuffled", "clustered"} {
			label := g.name + "/" + placement
			keys := make([]types.Constant, 2000)
			for i := range keys {
				keys[i] = g.gen(600)
			}
			if placement == "clustered" {
				slices.SortStableFunc(keys, types.Constant.Compare)
			}
			sorted, inserted := indexPair(t, keys)
			probes := []types.Constant{types.Int(-1000), types.Int(1 << 40), types.Str(""), types.Str("zzz"), types.Null}
			for i := 0; i < 8; i++ {
				probes = append(probes, keys[rng.Intn(len(keys))], g.gen(1800))
			}
			sameIndex(t, label, sorted, inserted, probes)
			leaves := leafCount(sorted.indexes["k"].tree)
			for i := 0; i < 1000; i++ {
				row := types.Row{g.gen(1800), types.Int(int64(-i))}
				if err := sorted.Insert(row); err != nil {
					t.Fatal(err)
				}
				if err := inserted.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			if after := leafCount(sorted.indexes["k"].tree); after <= leaves {
				t.Fatalf("%s: %d inserts left the packed tree at %d leaves", label, 1000, after)
			}
			sameIndex(t, label+" after inserts", sorted, inserted, probes)
		}
	}
}

// leafCount counts a tree's leaves along their links.
func leafCount(t *BTree) int {
	n := 0
	for l := t.root.firstLeaf(); l != nil; l = l.next {
		n++
	}
	return n
}

// TestNaNIndexBuildsByInserts: a key column holding a NaN has no strict
// order to sort by, so CreateIndex inserts its keys one at a time and
// builds exactly the insert-built tree; a column without one is packed
// and is not that tree.
func TestNaNIndexBuildsByInserts(t *testing.T) {
	keys := make([]types.Constant, 500)
	for i := range keys {
		keys[i] = types.Float(float64(i % 300))
	}
	packedSorted, packedInserted := indexPair(t, keys)
	if reflect.DeepEqual(packedSorted.indexes["k"].tree, packedInserted.indexes["k"].tree) {
		t.Fatal("a column without NaN should be packed, not insert-built")
	}
	keys[250] = types.Float(math.NaN())
	sorted, inserted := indexPair(t, keys)
	if !reflect.DeepEqual(sorted.indexes["k"].tree, inserted.indexes["k"].tree) {
		t.Error("a column with a NaN should be indexed by inserting its keys in order")
	}
}

// TestCreateIndexAllocs: the sorted build allocates per tree level, not
// per key: one B+-tree leaf holds up to btreeOrder keys, and a build
// makes fewer allocations than its tree has leaves.
func TestCreateIndexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{4096, 65536} {
		for _, kind := range []string{"int", "string"} {
			keys := make([]types.Constant, n)
			for i := range keys {
				if kind == "int" {
					keys[i] = types.Int(int64(i * 7 % n / 2))
				} else {
					keys[i] = types.Str(fmt.Sprintf("k%06d", i*7%n/2))
				}
			}
			c, _ := indexPair(t, keys)
			leaves := n / 2 / btreeOrder
			allocs := testing.AllocsPerRun(3, func() {
				delete(c.indexes, "k")
				if err := c.CreateIndex("k", false); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d %s keys (%d distinct, >= %d leaves): %.0f allocations", n, kind, n/2, leaves, allocs)
			if allocs > float64(leaves) {
				t.Errorf("CreateIndex over %d %s keys made %.0f allocations, more than the tree's %d leaves",
					n, kind, allocs, leaves)
			}
		}
	}
}

// TestAttributeStatsAllocs: an int column's statistics allocate the
// distinct-value bitmap and nothing per row, whatever the row count.
func TestAttributeStatsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{700, 70000} {
		c := loadParts(t, Open(DefaultConfig()), n, true)
		for _, attr := range []string{"id", "buildDate", "x"} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := c.AttributeStats(attr); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("AttributeStats(%q) over %d rows made %.0f allocations, want at most 2", attr, n, allocs)
			}
		}
	}
}
