package vexec

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

// spillTables is the in-package analogue of the external suite's test
// catalog: SchemaSource for Resolve plus a Leaf hook serving scans.
type spillTables map[string]struct {
	schema *types.Schema
	rows   []types.Row
}

func (c spillTables) CollectionSchema(wrapper, collection string) (*types.Schema, error) {
	t, ok := c[collection]
	if !ok {
		return nil, fmt.Errorf("no collection %s", collection)
	}
	return t.schema, nil
}

func (c spillTables) scanLeaf(n *algebra.Node) ([]types.Row, bool, error) {
	if n.Kind != algebra.OpScan {
		return nil, false, nil
	}
	t, ok := c[n.Collection]
	if !ok {
		return nil, false, fmt.Errorf("no collection %s", n.Collection)
	}
	return t.rows, true, nil
}

// Spill correctness property tests: the spilled execution of a breaker
// must produce the exact multiset of rows the in-memory execution does —
// same values to the float bit, any order. Multisets are compared by
// sorting per-row FNV digests (types.AppendValues is canonical and
// bit-exact, so equal digests mean equal rows).

func rowDigests(rows []types.Row) []uint64 {
	ds := make([]uint64, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = types.AppendValues(buf[:0], r)
		h := fnv.New64a()
		h.Write(buf)
		ds[i] = h.Sum64()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func requireSameMultiset(t *testing.T, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("spilled run emitted %d rows, in-memory %d", len(got), len(want))
	}
	wd, gd := rowDigests(want), rowDigests(got)
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("multisets differ (first digest mismatch at sorted position %d)", i)
		}
	}
}

// spillCatalog builds a skewed joinable dataset big enough to force
// several spill partitions at a small budget.
func spillCatalog(n int, seed int64) spillTables {
	rng := rand.New(rand.NewSource(seed))
	schema := types.NewSchema(
		types.Field{Name: "k", Collection: "fact", Type: types.KindInt},
		types.Field{Name: "v", Collection: "fact", Type: types.KindFloat},
		types.Field{Name: "tag", Collection: "fact", Type: types.KindString},
	)
	rows := make([]types.Row, n)
	for i := range rows {
		k := int64(rng.Intn(n / 8))
		if rng.Intn(10) == 0 {
			k = 7 // hot key: fat buckets and skewed partitions
		}
		rows[i] = types.Row{
			types.Int(k),
			types.Float(rng.NormFloat64() * 1000),
			types.Str(strings.Repeat("x", rng.Intn(20))),
		}
	}
	dimSchema := types.NewSchema(
		types.Field{Name: "k", Collection: "dim", Type: types.KindInt},
		types.Field{Name: "w", Collection: "dim", Type: types.KindFloat},
	)
	dims := make([]types.Row, n/4)
	for i := range dims {
		dims[i] = types.Row{types.Int(int64(rng.Intn(n / 8))), types.Float(rng.Float64())}
	}
	return spillTables{
		"fact": {schema: schema, rows: rows},
		"dim":  {schema: dimSchema, rows: dims},
	}
}

func spillJoinPlan(t *testing.T, cat spillTables) *algebra.Node {
	t.Helper()
	// dim joins fact with fact on the right: the big skewed table is the
	// build side, which is what the memory budget bounds.
	plan := algebra.Join(
		algebra.Scan("src", "dim"),
		algebra.Scan("src", "fact"),
		algebra.NewJoinPred(
			algebra.Ref{Collection: "dim", Attr: "k"},
			algebra.Ref{Collection: "fact", Attr: "k"},
		),
	)
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatal(err)
	}
	return plan
}

func spillAggPlan(t *testing.T, cat spillTables) *algebra.Node {
	t.Helper()
	plan := algebra.Aggregate(
		algebra.Scan("src", "fact"),
		[]algebra.Ref{{Collection: "fact", Attr: "k"}},
		[]algebra.AggSpec{
			{Func: algebra.AggCount, Star: true},
			{Func: algebra.AggSum, Attr: algebra.Ref{Collection: "fact", Attr: "v"}},
			{Func: algebra.AggAvg, Attr: algebra.Ref{Collection: "fact", Attr: "v"}},
		},
	)
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatal(err)
	}
	return plan
}

// runPlanOpts executes a plan against the catalog with the given options
// and reports whether any breaker spilled.
func runPlanOpts(t *testing.T, plan *algebra.Node, cat spillTables, opts Options) ([]types.Row, bool) {
	t.Helper()
	counts := Counts{}
	rows, err := Run(plan, &Env{Opts: opts, Counts: counts, Leaf: cat.scanLeaf})
	if err != nil {
		t.Fatal(err)
	}
	spilled := false
	for _, s := range counts {
		spilled = spilled || s.Spilled
	}
	return rows, spilled
}

// TestSpillJoinMatchesInMemory: a hash join forced over budget must
// Grace-spill and still produce the in-memory multiset, at several
// budgets (different partition/recursion shapes).
func TestSpillJoinMatchesInMemory(t *testing.T) {
	cat := spillCatalog(4000, 11)
	plan := spillJoinPlan(t, cat)
	want, spilled := runPlanOpts(t, plan, cat, Options{})
	if spilled {
		t.Fatal("unbudgeted run spilled")
	}
	for _, budget := range []int64{32 << 10, 8 << 10, 2 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			got, spilled := runPlanOpts(t, plan, cat, Options{MemBytes: budget, SpillDir: t.TempDir()})
			if !spilled {
				t.Fatal("budgeted run did not spill")
			}
			requireSameMultiset(t, want, got)
		})
	}
}

// TestSpillAggMatchesInMemory: same property for the aggregation
// breaker — and because partitions accumulate raw rows in input order,
// the float sums/avgs must be bit-identical, which the digest comparison
// (exact float bits) checks for free.
func TestSpillAggMatchesInMemory(t *testing.T) {
	cat := spillCatalog(6000, 13)
	plan := spillAggPlan(t, cat)
	want, spilled := runPlanOpts(t, plan, cat, Options{})
	if spilled {
		t.Fatal("unbudgeted run spilled")
	}
	for _, budget := range []int64{64 << 10, 8 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			got, spilled := runPlanOpts(t, plan, cat, Options{MemBytes: budget, SpillDir: t.TempDir()})
			if !spilled {
				t.Fatal("budgeted run did not spill")
			}
			requireSameMultiset(t, want, got)
		})
	}
}

// TestSpillWriteErrorSurfaces: an injected write failure mid-spill must
// surface as a clean wrapped error from Run, not a partial result — and
// Close must still remove every spill temp file.
func TestSpillWriteErrorSurfaces(t *testing.T) {
	cat := spillCatalog(3000, 17)
	dir := t.TempDir()
	boom := errors.New("disk full")
	calls := 0
	testSpillWriteErr = func() error {
		calls++
		if calls > 500 {
			return boom
		}
		return nil
	}
	defer func() { testSpillWriteErr = nil }()

	for name, plan := range map[string]*algebra.Node{
		"join": spillJoinPlan(t, cat),
		"agg":  spillAggPlan(t, cat),
	} {
		t.Run(name, func(t *testing.T) {
			calls = 0
			_, err := Run(plan, &Env{
				Opts: Options{MemBytes: 4 << 10, SpillDir: dir},
				Leaf: cat.scanLeaf,
			})
			if !errors.Is(err, boom) {
				t.Fatalf("error = %v, want wrapped %v", err, boom)
			}
			if err == nil || !strings.Contains(err.Error(), "vexec: spill write") {
				t.Fatalf("error %q not wrapped as a spill write failure", err)
			}
			left, globErr := filepath.Glob(filepath.Join(dir, "disco-exec-spill-*"))
			if globErr != nil {
				t.Fatal(globErr)
			}
			if len(left) != 0 {
				t.Fatalf("%d spill files leaked after error", len(left))
			}
		})
	}
}

// TestSpillDirCreateError: an unusable spill directory fails the query
// cleanly at the moment the budget trips.
func TestSpillDirCreateError(t *testing.T) {
	cat := spillCatalog(3000, 19)
	plan := spillJoinPlan(t, cat)
	dir := filepath.Join(t.TempDir(), "nonexistent", "nested")
	_, err := Run(plan, &Env{
		Opts: Options{MemBytes: 4 << 10, SpillDir: dir},
		Leaf: cat.scanLeaf,
	})
	if err == nil || !strings.Contains(err.Error(), "vexec: create spill file") {
		t.Fatalf("error = %v, want create-spill failure", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Fatalf("spill dir unexpectedly created: %v", statErr)
	}
}

// TestSpillRecursionSkew: every fact row shares one join key, so level-0
// partitions cannot split and recursion must bottom out at
// maxSpillLevels without losing rows.
func TestSpillRecursionSkew(t *testing.T) {
	schema := types.NewSchema(
		types.Field{Name: "k", Collection: "fact", Type: types.KindInt},
		types.Field{Name: "v", Collection: "fact", Type: types.KindFloat},
	)
	rows := make([]types.Row, 2000)
	for i := range rows {
		rows[i] = types.Row{types.Int(7), types.Float(float64(i))}
	}
	dimSchema := types.NewSchema(
		types.Field{Name: "k", Collection: "dim", Type: types.KindInt},
	)
	cat := spillTables{
		"fact": {schema: schema, rows: rows},
		"dim":  {schema: dimSchema, rows: []types.Row{{types.Int(7)}, {types.Int(8)}}},
	}
	plan := spillJoinPlan(t, cat)
	want, _ := runPlanOpts(t, plan, cat, Options{})
	got, spilled := runPlanOpts(t, plan, cat, Options{MemBytes: 2 << 10, SpillDir: t.TempDir()})
	if !spilled {
		t.Fatal("skewed run did not spill")
	}
	requireSameMultiset(t, want, got)
}
