// Benchmarks regenerating the paper's evaluation artifacts, one per
// figure/table (see DESIGN.md §3 and EXPERIMENTS.md). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the headline metric of its experiment as custom
// units next to the usual ns/op.
package disco

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/experiments"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/optimizer"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// benchScale keeps the page/object geometry of the paper (70 objects per
// page) at a size that iterates quickly; cmd/experiments runs the full
// 70000-object layout.
func benchScale() oo7.Scale {
	s := oo7.PaperScale()
	s.AtomicParts = 14000
	return s
}

// BenchmarkFigure12 regenerates the E1 figure: measured index-scan
// response time vs. the calibrated and Yao estimates. Reported metrics:
// RMS relative error of each estimator (%).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(benchScale(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*res.RMSCalib, "calibRMS%")
			b.ReportMetric(100*res.RMSYao, "yaoRMS%")
		}
	}
}

// BenchmarkFigure12Error regenerates the E2 error table standalone (the
// worst-case estimator error).
func BenchmarkFigure12Error(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(benchScale(), nil, []float64{0.05, 0.2, 0.5, 0.7})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*res.MaxCalib, "calibMax%")
			b.ReportMetric(100*res.MaxYao, "yaoMax%")
		}
	}
}

// BenchmarkPlanQuality regenerates E3: the workload optimized and
// executed under the generic and blended models. Reported metric: total
// actual seconds of the chosen plans per model.
func BenchmarkPlanQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.PlanQuality(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var gen, ble float64
			for _, row := range res.Rows {
				if row.Model == "generic" {
					gen += row.ActualS
				} else {
					ble += row.ActualS
				}
			}
			b.ReportMetric(gen, "genericActualS")
			b.ReportMetric(ble, "blendedActualS")
		}
	}
}

// BenchmarkRuleMatching regenerates the E4 matching-overhead table.
// Reported metric: microseconds per plan estimation with 1000 registered
// rules.
func BenchmarkRuleMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RuleOverhead([]int{0, 1000}, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Rows[1].EstimateMicros, "µs/estimate@1000rules")
		}
	}
}

// BenchmarkBytecodeVsInterp regenerates the E4 evaluation comparison.
// Reported metric: interpreter-to-bytecode slowdown factor.
func BenchmarkBytecodeVsInterp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RuleOverhead([]int{0}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.InterpNS/res.BytecodeNS, "interp/bytecode")
		}
	}
}

// BenchmarkHistory regenerates E5: estimate error before and after the
// query-scope rule is recorded. Reported metrics: mean error (%).
func BenchmarkHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.History(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			var first, repeat float64
			for _, row := range res.Rows {
				first += row.FirstErrPct
				repeat += row.RepeatErrPct
			}
			n := float64(len(res.Rows))
			b.ReportMetric(first/n, "firstErr%")
			b.ReportMetric(repeat/n, "repeatErr%")
		}
	}
}

// BenchmarkPruning regenerates E6: formula evaluations saved by the
// required-variable optimization and the traversal cut.
func BenchmarkPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Pruning()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.Rows[0].FormulaEvals), "fullEvals")
			b.ReportMetric(float64(res.Rows[1].FormulaEvals), "requiredEvals")
		}
	}
}

// BenchmarkJoinCrossover regenerates E7: the generic model's join-method
// crossover. Reported metric: inner cardinality where the index join
// first wins.
func BenchmarkJoinCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.JoinCrossover(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			cross := float64(0)
			for _, row := range res.Rows {
				if row.Winner == "index" {
					cross = float64(row.InnerCard)
					break
				}
			}
			b.ReportMetric(cross, "indexWinsAtInner")
		}
	}
}

// BenchmarkClustering regenerates E8: the clustering-aware wrapper rule
// against the calibrated line on clustered placement. Reported metrics:
// RMS error (%) of each estimator vs. the clustered measurement.
func BenchmarkClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Clustering(benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*res.RMSCalibOnClustered, "calibRMS%")
			b.ReportMetric(100*res.RMSBlendedClustered, "blendedRMS%")
		}
	}
}

// BenchmarkOO7Suite regenerates E9: the OO7 validation suite under the
// blended model. Reported metrics: mean and max estimate error (%).
func BenchmarkOO7Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.OO7Suite(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.MeanPct, "meanErr%")
			b.ReportMetric(res.MaxPct, "maxErr%")
		}
	}
}

// BenchmarkFeedbackConvergence regenerates E10: the self-tuning study on
// a mis-registered federation. Reported metrics: the final round's median
// cardinality q-error and the first-to-last improvement factor.
func BenchmarkFeedbackConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Feedback()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := res.Rounds[len(res.Rounds)-1]
			b.ReportMetric(last.MedianCardQ, "q-error")
			b.ReportMetric(res.Improvement(), "improvement-x")
		}
	}
}

// benchOptimizeFixture builds an nrel-relation join chain spread across
// an object and a relational wrapper — the search-space workload for
// the BenchmarkOptimize* family. Relation cardinalities vary so join
// orders have genuinely different costs. At 7 relations the dynamic
// program explores the space; above MaxDPRelations (10) the optimizer
// switches to the greedy heuristic, which re-prices surviving join pairs
// every round.
func benchOptimizeFixture(tb testing.TB, nrel int) (*optimizer.Optimizer, *optimizer.QueryBlock) {
	tb.Helper()
	ostore := objstore.Open(objstore.DefaultConfig())
	rstore := relstore.Open(relstore.DefaultConfig())

	sizes := []int{2000, 120, 900, 60, 1500, 300, 45, 700, 220, 1100, 80, 400}
	if nrel > len(sizes) {
		tb.Fatalf("fixture supports up to %d relations, asked for %d", len(sizes), nrel)
	}
	rels := make([]optimizer.Rel, nrel)
	var joins []algebra.Comparison
	for i := 0; i < nrel; i++ {
		name := fmt.Sprintf("C%d", i)
		schema := types.NewSchema(
			types.Field{Name: "id", Collection: name, Type: types.KindInt},
			types.Field{Name: "fk", Collection: name, Type: types.KindInt},
		)
		row := func(r int) types.Row {
			return types.Row{types.Int(int64(r)), types.Int(int64(r % 50))}
		}
		if i%2 == 0 {
			coll, err := ostore.CreateCollection(name, schema, 64)
			if err != nil {
				tb.Fatal(err)
			}
			for r := 0; r < sizes[i]; r++ {
				coll.Insert(row(r))
			}
			rels[i] = optimizer.Rel{Wrapper: "obj1", Collection: name}
		} else {
			tbl, err := rstore.CreateTable(name, schema, 48)
			if err != nil {
				tb.Fatal(err)
			}
			for r := 0; r < sizes[i]; r++ {
				tbl.Insert(row(r))
			}
			rels[i] = optimizer.Rel{Wrapper: "rel1", Collection: name}
		}
		if i > 0 {
			r := algebra.Ref{Collection: name, Attr: "id"}
			joins = append(joins, algebra.Comparison{
				Left:      algebra.Ref{Collection: fmt.Sprintf("C%d", i-1), Attr: "fk"},
				Op:        stats.CmpEQ,
				RightAttr: &r,
			})
		}
	}
	// Chords on top of the chain: the denser graph connects far more
	// relation subsets, so the dynamic program prices more candidates per
	// level. Chords past nrel are skipped, keeping the graph shape stable
	// as the fixture scales.
	for _, chord := range [][2]int{{0, 3}, {2, 6}, {5, 11}, {1, 8}} {
		if chord[1] >= nrel {
			continue
		}
		r := algebra.Ref{Collection: fmt.Sprintf("C%d", chord[1]), Attr: "id"}
		joins = append(joins, algebra.Comparison{
			Left:      algebra.Ref{Collection: fmt.Sprintf("C%d", chord[0]), Attr: "fk"},
			Op:        stats.CmpEQ,
			RightAttr: &r,
		})
	}
	rels[0].Pred = algebra.NewSelPred(algebra.Ref{Collection: "C0", Attr: "id"}, stats.CmpLT, types.Int(400))

	cat := catalog.New()
	reg := core.MustDefaultRegistry()
	for _, w := range []wrapper.Wrapper{
		wrapper.NewObjWrapper("obj1", ostore),
		wrapper.NewRelWrapper("rel1", rstore),
	} {
		if err := cat.Register(w); err != nil {
			tb.Fatal(err)
		}
		if src := w.CostRules(); src != "" {
			file, err := costlang.Parse(src)
			if err != nil {
				tb.Fatal(err)
			}
			if err := reg.IntegrateWrapper(w.Name(), file, cat); err != nil {
				tb.Fatal(err)
			}
		}
	}
	est := core.NewEstimator(reg, cat, netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005}))
	opt := optimizer.New(cat, est, optimizer.DefaultOptions())
	return opt, &optimizer.QueryBlock{Relations: rels, JoinPreds: joins}
}

// benchmarkOptimize times full plan searches over an nrel-relation
// chain under the given search options, reporting the candidate count of
// the last run. Each search runs on a fresh clone of the estimator, as
// every prepare does, so what a search costs its clone is counted. With
// freshLiteral, each search also filters the first relation on a literal
// no earlier search used, as a stream of never-repeated statements does.
func benchmarkOptimize(b *testing.B, nrel int, opts optimizer.Options, freshLiteral bool) {
	opt, qb := benchOptimizeFixture(b, nrel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qb
		if freshLiteral {
			cp := *qb
			cp.Relations = append([]optimizer.Rel(nil), qb.Relations...)
			cp.Relations[0].Pred = algebra.NewSelPred(algebra.Ref{Collection: "C0", Attr: "id"}, stats.CmpLT, types.Int(int64(400+i)))
			q = &cp
		}
		est := opt.Est.Clone()
		est.Reset()
		res, err := optimizer.New(opt.Cat, est, opts).Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.PlansCosted), "plans")
		}
	}
}

// BenchmarkOptimize is the left-deep dynamic program over 7 relations.
func BenchmarkOptimize(b *testing.B) {
	benchmarkOptimize(b, 7, optimizer.DefaultOptions(), false)
}

// BenchmarkOptimizeWide is the left-deep dynamic program over the
// 8-relation chord graph, each search on a fresh literal: the shape of
// the bench's adhoc-widejoin statements, whose plan cache always misses.
func BenchmarkOptimizeWide(b *testing.B) {
	benchmarkOptimize(b, 8, optimizer.DefaultOptions(), true)
}

// BenchmarkOptimizeGreedy crosses MaxDPRelations: 12 relations force
// the greedy join heuristic, which re-prices surviving pairs every
// round.
func BenchmarkOptimizeGreedy(b *testing.B) {
	benchmarkOptimize(b, 12, optimizer.DefaultOptions(), false)
}

// benchServingMediator builds the federation the concurrent serving
// benchmark queries: a five-relation join chain with tiny extents, so
// execution is cheap and planning is not — exactly the regime where the
// prepared-plan cache separates the two arms.
func benchServingMediator(b *testing.B, planCacheSize int) *Mediator {
	b.Helper()
	cfg := DefaultConfig()
	cfg.RecordHistory = false
	cfg.PlanCacheSize = planCacheSize
	m, err := NewMediator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ostore := OpenObjectStore(m, DefaultObjectStoreConfig())
	rstore := OpenRelationalStore(m, DefaultRelationalStoreConfig())
	for i, size := range []int{400, 80, 200, 50, 120} {
		name := fmt.Sprintf("R%d", i)
		schema := NewSchema(
			Field(name, fmt.Sprintf("id%d", i), KindInt),
			Field(name, fmt.Sprintf("fk%d", i), KindInt),
		)
		row := func(r int) Row {
			return Row{Int(int64(r)), Int(int64(r % 50))}
		}
		if i%2 == 0 {
			coll, err := ostore.CreateCollection(name, schema, 64)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < size; r++ {
				if err := coll.Insert(row(r)); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			tbl, err := rstore.CreateTable(name, schema, 48)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < size; r++ {
				if err := tbl.Insert(row(r)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := m.Register(NewObjectWrapper("obj1", ostore)); err != nil {
		b.Fatal(err)
	}
	if err := m.Register(NewRelationalWrapper("rel1", rstore)); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkConcurrentQuery measures the serving-throughput win of the
// concurrent mediator: 8 workers sharing the prepared-plan cache against
// the pre-concurrency baseline — a global mutex around a cache-less
// mediator, which is what the old one-connection-at-a-time discod
// handler amounted to. Reported metrics: queries/sec of each arm and the
// speedup factor. On a single core the win comes from the plan cache
// (repeat statements skip parse/bind/optimize), not from parallelism, so
// the gate holds on any machine.
func BenchmarkConcurrentQuery(b *testing.B) {
	queries := make([]string, 8)
	for k := range queries {
		queries[k] = fmt.Sprintf(
			`SELECT id0 FROM R0, R1, R2, R3, R4 WHERE fk0 = id1 AND fk1 = id2 AND fk2 = id3 AND fk3 = id4 AND id0 < %d`,
			30+k)
	}
	const workers = 8
	const total = 320

	run := func(planCacheSize int, serialize bool) float64 {
		m := benchServingMediator(b, planCacheSize)
		var gate sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := 0; q < total/workers; q++ {
					sql := queries[(w+q)%len(queries)]
					if serialize {
						gate.Lock()
					}
					res, err := m.Query(sql)
					if serialize {
						gate.Unlock()
					}
					if err != nil {
						b.Error(err)
						return
					}
					if len(res.Rows) == 0 {
						b.Error("chain join returned no rows")
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(total) / time.Since(start).Seconds()
	}

	for i := 0; i < b.N; i++ {
		serialQPS := run(-1, true) // plan cache off + global mutex
		concQPS := run(0, false)   // default cache, free concurrency
		if i == b.N-1 {
			b.ReportMetric(concQPS, "qps")
			b.ReportMetric(serialQPS, "serialQPS")
			b.ReportMetric(concQPS/serialQPS, "speedup-x")
		}
	}
}
