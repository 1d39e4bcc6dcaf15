package mediator

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the .golden files under testdata")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is set. Explain output is deterministic: the stores,
// the optimizer search and virtual time all are.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (run with -update if intended):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

func TestExplainGolden(t *testing.T) {
	cases := []struct {
		name, sql string
	}{
		{"explain_point", `SELECT name FROM Employee WHERE id = 5`},
		{"explain_join", `SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`},
		{"explain_three_way", `SELECT name, dname, text FROM Employee, Dept, Notes WHERE dept = dno AND Employee.id = Notes.emp AND Employee.id < 100`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := buildMediator(t, DefaultConfig())
			out, err := m.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, out)
		})
	}
}

func TestExplainAnalyzeGolden(t *testing.T) {
	cases := []struct {
		name, sql string
	}{
		{"analyze_point", `SELECT name FROM Employee WHERE id = 5`},
		{"analyze_join", `SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`},
		{"analyze_agg", `SELECT dept, count(*) AS n FROM Employee GROUP BY dept ORDER BY dept`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Feedback stays off: the annotated actuals must not feed
			// back into the estimates, so reruns are reproducible.
			m := buildMediator(t, DefaultConfig())
			out, err := m.ExplainAnalyze(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, out)
		})
	}
}

// The partial case: a query over a collection whose only owner is down
// still renders, with the dead submit marked EXCLUDED and the header
// carrying the PARTIAL tag.
func TestExplainAnalyzePartialGolden(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	m.Engine.MarkUnavailable("files")
	out, err := m.ExplainAnalyze(`SELECT text FROM Notes WHERE emp < 50`)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "analyze_partial", out)
}
