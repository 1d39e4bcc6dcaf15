package vexec_test

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// The pipeline and breaker benchmarks and the allocation gates (`make
// ci-alloc`). The pipeline benchmarks report rows/sec — source rows pushed
// through a representative select → hash-join → aggregate pipeline per
// wall-clock second; the breaker benchmarks report B/op and allocs/op of
// each pipeline breaker alone. The repo's benchmark (bench/, scan-analytic
// rows_per_s) is the end-to-end measure.

// benchParts is the source cardinality of the benchmark pipeline. Large
// enough that per-batch costs dominate per-query setup, small enough
// that -benchtime 1x stays fast in CI.
const benchParts = 100_000

// benchPipeline builds the benchmark plan over a seeded catalog:
//
//	agg(region; count, sum(weight)) ⋈ (σ weight>10 (parts) ⨝ suppliers)
//
// — a selective filter feeding a hash join feeding a grouped aggregate,
// the operator mix the mediator's own plans are made of.
func benchPipeline(tb testing.TB, nParts int) (testCatalog, *algebra.Node) {
	tb.Helper()
	cat := makeCatalog(nParts, 200, 7)
	plan := algebra.Aggregate(
		algebra.Join(
			algebra.Select(algebra.Scan("src", "parts"),
				algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(10))),
			algebra.Scan("src", "suppliers"),
			algebra.NewJoinPred(ref("parts", "supplier"), ref("suppliers", "sid"))),
		[]algebra.Ref{ref("suppliers", "region")},
		[]algebra.AggSpec{
			{Func: algebra.AggCount, Star: true},
			{Func: algebra.AggSum, Attr: ref("parts", "weight")},
		})
	if err := algebra.Resolve(plan, cat); err != nil {
		tb.Fatalf("resolve: %v", err)
	}
	return cat, plan
}

// BenchmarkExecPipeline measures the vectorized engine over the
// benchmark pipeline.
func BenchmarkExecPipeline(b *testing.B) {
	cat, plan := benchPipeline(b, benchParts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := vexec.Run(plan, &vexec.Env{Leaf: cat.scanLeaf})
		if err != nil || len(out) == 0 {
			b.Fatalf("run: %v (%d rows)", err, len(out))
		}
	}
	b.ReportMetric(float64(benchParts)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkExecSpill measures the spill crossover: the same pipeline
// under shrinking breaker memory budgets (0 = all in memory). The
// rows/sec drop from budget=0 to the smallest budget is the price of
// Grace partitioning; EXPERIMENTS.md E13 tracks it.
func BenchmarkExecSpill(b *testing.B) {
	cat, plan := benchPipeline(b, benchParts)
	for _, budget := range []int64{0, 1 << 20, 1 << 16} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			opts := vexec.Options{MemBytes: budget, SpillDir: b.TempDir()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := vexec.Run(plan, &vexec.Env{Opts: opts, Leaf: cat.scanLeaf})
				if err != nil || len(out) == 0 {
					b.Fatalf("run: %v (%d rows)", err, len(out))
				}
			}
			b.ReportMetric(float64(benchParts)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// TestExecSteadyStateAllocs is the ci-alloc allocation gate: once the
// batch pool is warm, pulling batches through a filter pipeline must not
// allocate per batch — only the constant per-query build cost (operator
// structs, compiled predicate) remains. The budget is a hard ceiling:
// ~0 allocations per batch on a ~98-batch input.
func TestExecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := makeCatalog(benchParts, 200, 7)
	plan := algebra.Select(algebra.Scan("src", "parts"),
		algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(30)))
	if err := algebra.Resolve(plan, cat); err != nil {
		t.Fatal(err)
	}
	batches := benchParts / vexec.DefaultBatchSize

	run := func() {
		op, err := vexec.Build(plan, &vexec.Env{Leaf: cat.scanLeaf})
		if err != nil {
			t.Fatal(err)
		}
		// Drain by hand without accumulating output, so the measurement
		// sees only the pipeline's own allocations.
		if err := vexec.Discard(op, vexec.DefaultBatchSize); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the batch pool
	avg := testing.AllocsPerRun(10, run)
	perBatch := avg / float64(batches)
	t.Logf("allocs/run = %.1f over %d batches (%.3f per batch)", avg, batches, perBatch)
	if perBatch > 0.5 {
		t.Errorf("%.3f allocations per batch; steady state must stay ~0 (total %.1f)", perBatch, avg)
	}
}

// breakerPlan builds one breaker over a table T(k, x) of n rows — distinct
// int keys k in shuffled order, random float payloads x — and a probe
// table P(k) of probe rows drawn from T's keys. Kinds: group (count per k),
// dupelim, hashJoin (P probes, T builds), sortInt (by k), sortFloat (by x).
func breakerPlan(tb testing.TB, kind string, n, probe int) (testCatalog, *algebra.Node) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make([]types.Row, n)
	for i, k := range rng.Perm(n) {
		rows[i] = types.Row{types.Int(int64(k)), types.Float(rng.Float64())}
	}
	probes := make([]types.Row, probe)
	for i := range probes {
		probes[i] = types.Row{types.Int(int64(rng.Intn(n)))}
	}
	cat := testCatalog{
		"T": {schema: types.NewSchema(
			types.Field{Name: "k", Collection: "T", Type: types.KindInt},
			types.Field{Name: "x", Collection: "T", Type: types.KindFloat}), rows: rows},
		"P": {schema: types.NewSchema(
			types.Field{Name: "k", Collection: "P", Type: types.KindInt}), rows: probes},
	}
	scanT := algebra.Scan("src", "T")
	var plan *algebra.Node
	switch kind {
	case "group":
		plan = algebra.Aggregate(scanT, []algebra.Ref{ref("T", "k")},
			[]algebra.AggSpec{{Func: algebra.AggCount, Star: true}})
	case "dupelim":
		plan = algebra.DupElim(scanT)
	case "hashJoin":
		plan = algebra.Join(algebra.Scan("src", "P"), scanT, algebra.NewJoinPred(ref("P", "k"), ref("T", "k")))
	case "sortInt":
		plan = algebra.Sort(scanT, algebra.SortKey{Attr: ref("T", "k")})
	case "sortFloat":
		plan = algebra.Sort(scanT, algebra.SortKey{Attr: ref("T", "x")})
	default:
		tb.Fatalf("unknown breaker %q", kind)
	}
	if err := algebra.Resolve(plan, cat); err != nil {
		tb.Fatalf("resolve: %v", err)
	}
	return cat, plan
}

// BenchmarkBreakers measures each pipeline breaker alone at the
// scan-analytic workload's scale: grouping and dup-elim over 14 000
// distinct keys, a hash join building 14 000 rows for 1 000 probes, and
// sorts of 7 000 rows on an int key (read into a typed column) and on a
// float key (compared through Compare). EXPERIMENTS.md E13 records its
// B/op and allocs/op.
func BenchmarkBreakers(b *testing.B) {
	for _, bc := range []struct {
		kind     string
		n, probe int
	}{
		{"group", 14000, 0},
		{"dupelim", 14000, 0},
		{"hashJoin", 14000, 1000},
		{"sortInt", 7000, 0},
		{"sortFloat", 7000, 0},
	} {
		b.Run(bc.kind, func(b *testing.B) {
			cat, plan := breakerPlan(b, bc.kind, bc.n, bc.probe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vexec.Run(plan, &vexec.Env{Leaf: cat.scanLeaf}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBreakerAllocs is the ci-alloc gate on the breakers' state: grouping,
// dup-elim and a hash join's build allocate per query, not per key. Over
// 16k distinct keys each may allocate at most 16k/256 + 4 more times than
// over 1k (table doublings and slabs, never an object per key). The
// collector is off while measuring, as in TestDrainAllocs.
func TestBreakerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, large = 1 << 10, 1 << 14
	for _, kind := range []string{"group", "dupelim", "hashJoin"} {
		t.Run(kind, func(t *testing.T) {
			allocs := func(n int) float64 {
				cat, plan := breakerPlan(t, kind, n, 1)
				run := func() {
					op, err := vexec.Build(plan, &vexec.Env{Leaf: cat.scanLeaf})
					if err != nil {
						t.Fatal(err)
					}
					if err := vexec.Discard(op, vexec.DefaultBatchSize); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the batch and collector pools
				return testing.AllocsPerRun(10, run)
			}
			lo, hi := allocs(small), allocs(large)
			t.Logf("allocs: %.0f over %d keys, %.0f over %d", lo, small, hi, large)
			if hi-lo > large/256+4 {
				t.Errorf("%.0f allocations over %d keys, %.0f over %d: more than %d apart",
					hi, large, lo, small, large/256+4)
			}
		})
	}
}
