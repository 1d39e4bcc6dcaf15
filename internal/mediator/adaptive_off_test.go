package mediator

import (
	"fmt"
	"strings"
	"testing"
)

// adaptiveOffWorkload is a representative statement mix: point lookup,
// two-way join, three-way join across all three source kinds, and an
// aggregate — every execution shape the adaptive executor stages.
var adaptiveOffWorkload = []string{
	`SELECT name FROM Employee WHERE id = 5`,
	`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`,
	`SELECT name, dname, text FROM Employee, Dept, Notes WHERE dept = dno AND Employee.id = Notes.emp AND Employee.id < 100`,
	`SELECT dept, count(*) AS n FROM Employee GROUP BY dept ORDER BY dept`,
}

// adaptiveOffTrace is everything one run of the workload observably
// produces: per-statement plan text, result rows, virtual elapsed time,
// EXPLAIN ANALYZE rendering, and the final feedback snapshot.
type adaptiveOffTrace struct {
	plans    []string
	rows     []string
	elapsed  []float64
	analyze  []string
	feedback string
	stats    Stats
}

func runAdaptiveOffWorkload(t *testing.T) adaptiveOffTrace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Feedback = true
	cfg.Adaptive = false // the regression under test: off must mean off
	m := buildMediator(t, cfg)

	var tr adaptiveOffTrace
	for _, sql := range adaptiveOffWorkload {
		plan, err := m.Explain(sql)
		if err != nil {
			t.Fatalf("explain %q: %v", sql, err)
		}
		tr.plans = append(tr.plans, plan)
		res, err := m.Query(sql)
		if err != nil {
			t.Fatalf("query %q: %v", sql, err)
		}
		var rows strings.Builder
		for _, row := range res.Rows {
			fmt.Fprintln(&rows, row)
		}
		tr.rows = append(tr.rows, rows.String())
		tr.elapsed = append(tr.elapsed, res.ElapsedMS)
		an, err := m.ExplainAnalyze(sql)
		if err != nil {
			t.Fatalf("explain analyze %q: %v", sql, err)
		}
		tr.analyze = append(tr.analyze, an)
	}
	fb, err := m.FeedbackSummary()
	if err != nil {
		t.Fatalf("feedback summary: %v", err)
	}
	tr.feedback = fb
	tr.stats = m.Stats()
	return tr
}

// TestAdaptiveOffBitIdentical is the Adaptive=false regression gate: a
// mediator with the adaptive executor disabled must behave exactly like
// a build without the subsystem. Two independent runs of the same
// workload must agree bit-for-bit on plans, result rows, virtual elapsed
// times, EXPLAIN ANALYZE renderings, and feedback snapshots, with the
// adaptive counters pinned at zero. (The golden files of golden_test.go,
// which predate the adaptive subsystem and are unchanged, pin the same
// contract against the pre-adaptive rendering.) Run under -race, this
// also shakes out any shared state the adaptive path might leak into the
// off path.
func TestAdaptiveOffBitIdentical(t *testing.T) {
	a := runAdaptiveOffWorkload(t)
	b := runAdaptiveOffWorkload(t)
	for i, sql := range adaptiveOffWorkload {
		if a.plans[i] != b.plans[i] {
			t.Errorf("%q: plan drifted between identical runs:\n--- run A ---\n%s\n--- run B ---\n%s", sql, a.plans[i], b.plans[i])
		}
		if a.rows[i] != b.rows[i] {
			t.Errorf("%q: result rows drifted between identical runs", sql)
		}
		if a.elapsed[i] != b.elapsed[i] {
			t.Errorf("%q: virtual elapsed drifted: %.6f vs %.6f ms", sql, a.elapsed[i], b.elapsed[i])
		}
		if a.analyze[i] != b.analyze[i] {
			t.Errorf("%q: EXPLAIN ANALYZE drifted between identical runs:\n--- run A ---\n%s\n--- run B ---\n%s", sql, a.analyze[i], b.analyze[i])
		}
	}
	if a.feedback != b.feedback {
		t.Errorf("feedback snapshot drifted between identical runs:\n--- run A ---\n%s\n--- run B ---\n%s", a.feedback, b.feedback)
	}
	for _, tr := range []adaptiveOffTrace{a, b} {
		if tr.stats.AdaptiveReplans != 0 || tr.stats.AdaptiveSwitches != 0 {
			t.Errorf("adaptive counters moved with Adaptive=false: replans=%d switches=%d",
				tr.stats.AdaptiveReplans, tr.stats.AdaptiveSwitches)
		}
	}
}
