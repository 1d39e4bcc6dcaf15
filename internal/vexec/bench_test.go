package vexec_test

import (
	"fmt"
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// The pipeline benchmarks and the allocation gate (`make ci-exec`). The
// benchmarks report rows/sec — source rows pushed through a
// representative select → hash-join → aggregate pipeline per wall-clock
// second; the repo's benchmark (bench/, scan-analytic rows_per_s) is the
// end-to-end measure.

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

// TestExecSteadyStateAllocs is the ci-exec allocation gate: once the
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
