package mediator

import (
	"fmt"
	"strings"
	"testing"
)

// determinismWorkload is a representative statement mix: point lookup,
// two-way join, three-way join across all three source kinds, and an
// aggregate.
var determinismWorkload = []string{
	`SELECT name FROM Employee WHERE id = 5`,
	`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`,
	`SELECT name, dname, text FROM Employee, Dept, Notes WHERE dept = dno AND Employee.id = Notes.emp AND Employee.id < 100`,
	`SELECT dept, count(*) AS n FROM Employee GROUP BY dept ORDER BY dept`,
}

// servingTrace is everything one run of the workload observably
// produces: per-statement plan text, result rows, virtual elapsed time,
// EXPLAIN ANALYZE rendering, and the final feedback snapshot.
type servingTrace struct {
	plans    []string
	rows     []string
	elapsed  []float64
	analyze  []string
	feedback string
}

func runDeterminismWorkload(t *testing.T) servingTrace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Feedback = true
	m := buildMediator(t, cfg)

	var tr servingTrace
	for _, sql := range determinismWorkload {
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
	return tr
}

// TestServingRunsAreDeterministic: two independent mediators with the
// feedback loop on, serving the same workload, must agree bit-for-bit on
// plans, result rows, virtual elapsed times, EXPLAIN ANALYZE renderings
// and feedback snapshots — the model the loop learns is a function of
// the workload alone. Run under -race, this also shakes out shared state
// leaking between the serving, analyze and feedback paths.
func TestServingRunsAreDeterministic(t *testing.T) {
	a := runDeterminismWorkload(t)
	b := runDeterminismWorkload(t)
	for i, sql := range determinismWorkload {
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
}
