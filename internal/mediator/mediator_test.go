package mediator

import (
	"net"
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/filestore"
	"disco/internal/objstore"
	"disco/internal/optimizer"
	"disco/internal/relstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// buildMediator assembles a three-source deployment: employees in the
// object store, departments in the relational store, notes in flat files.
func buildMediator(t *testing.T, cfg Config) *Mediator {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ostore := objstore.Open(objstore.DefaultConfig())
	emp, err := ostore.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Employee", Type: types.KindString},
		types.Field{Name: "dept", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		emp.Insert(types.Row{types.Int(int64(i)),
			types.Str([]string{"ana", "bob", "cyd"}[i%3]),
			types.Int(int64(i % 10)), types.Int(int64(1000 + i%500))})
	}
	if err := emp.CreateIndex("id", true); err != nil {
		t.Fatal(err)
	}

	rstore := relstore.Open(relstore.DefaultConfig())
	dept, err := rstore.CreateTable("Dept", types.NewSchema(
		types.Field{Name: "dno", Collection: "Dept", Type: types.KindInt},
		types.Field{Name: "dname", Collection: "Dept", Type: types.KindString},
	), 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dept.Insert(types.Row{types.Int(int64(i)), types.Str("dept" + string(rune('A'+i)))})
	}
	dept.CreateHashIndex("dno")

	fstore := filestore.Open(filestore.DefaultConfig())
	notes, err := fstore.CreateFile("Notes", types.NewSchema(
		types.Field{Name: "emp", Collection: "Notes", Type: types.KindInt},
		types.Field{Name: "text", Collection: "Notes", Type: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		notes.Append(types.Row{types.Int(int64(i * 7 % 1000)), types.Str("note")})
	}

	for _, w := range []wrapper.Wrapper{
		wrapper.NewObjWrapper("obj1", ostore),
		wrapper.NewRelWrapper("rel1", rstore),
		wrapper.NewFileWrapper("files", fstore),
	} {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestQuerySingleSource(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT name, salary FROM Employee WHERE id < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Schema.Len() != 2 {
		t.Errorf("rows = %d schema = %v", len(res.Rows), res.Schema)
	}
	if res.ElapsedMS <= 0 {
		t.Error("virtual time should elapse")
	}
}

func TestQueryCrossSourceJoin(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 employees, salary = 1000 + i%500 < 1050 -> i%500 < 50 -> 100 rows.
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
}

func TestQueryThreeSources(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT name, text FROM Employee, Notes WHERE Employee.id = Notes.emp AND Employee.id < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("expected some joined notes")
	}
	for _, r := range res.Rows {
		if r[1].AsString() != "note" {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT dept, count(*) AS n, avg(salary) AS avgsal FROM Employee GROUP BY dept ORDER BY dept`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsInt() != 0 || res.Rows[0][1].AsInt() != 100 {
		t.Errorf("first group = %v", res.Rows[0])
	}
}

func TestQueryDistinctOrder(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT DISTINCT name FROM Employee ORDER BY name DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].AsString() != "cyd" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	cases := []string{
		`SELECT * FROM Nowhere`,
		`SELECT * FROM Employee@zzz`,
		`SELECT zzz FROM Employee`,
		`SELECT name, count(*) FROM Employee`,        // name not grouped
		`SELECT * , count(*) FROM Employee`,          // parse error actually
		`SELECT name FROM Employee GROUP BY name`,    // group without aggregates
		`SELECT *, name FROM Employee`,               // star mixed with columns
		`SELECT bogus FROM Employee WHERE bogus = 1`, // unknown attr
	}
	for _, sql := range cases {
		if _, err := m.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

// TestDuplicateCollectionRejected: with no aliases, attributes and join
// conjuncts name their relation by collection, so a FROM list naming one
// collection twice, pinned to one wrapper or two, cannot be bound: every
// conjunct would bind to the first copy (Dept.dno = Dept.dno becomes a
// selection on it). The error names the collection as written.
func TestDuplicateCollectionRejected(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	other := objstore.Open(objstore.DefaultConfig())
	emp2, err := other.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
	), 16)
	if err != nil {
		t.Fatal(err)
	}
	emp2.Insert(types.Row{types.Int(1)})
	if err := m.Register(wrapper.NewObjWrapper("obj2", other)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, coll string }{
		{`SELECT dno FROM Dept, Dept WHERE Dept.dno = Dept.dno`, "Dept"},
		{`SELECT dno FROM Dept, dept WHERE Dept.dno < 2`, "dept"},
		{`SELECT dname FROM Dept, Employee@obj1, DEPT`, "DEPT"},
		{`SELECT id FROM Employee@obj1, Employee@obj2 WHERE Employee.id < 5`, "Employee"},
	} {
		_, err := m.Query(tc.sql)
		if err == nil || !strings.Contains(err.Error(), "appears twice") || !strings.Contains(err.Error(), `"`+tc.coll+`"`) {
			t.Errorf("Query(%q): err = %v, want a duplicate-collection error naming %q", tc.sql, err, tc.coll)
		}
	}
	if _, err := m.Query(`SELECT dname FROM Dept, Employee@obj1 WHERE Dept.dno = Employee.dept`); err != nil {
		t.Errorf("distinct collections: %v", err)
	}
}

func TestAmbiguousCollectionNeedsPin(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	// Create a second wrapper exporting a collection named Employee.
	other := objstore.Open(objstore.DefaultConfig())
	emp2, err := other.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
	), 16)
	if err != nil {
		t.Fatal(err)
	}
	emp2.Insert(types.Row{types.Int(1)})
	if err := m.Register(wrapper.NewObjWrapper("obj2", other)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(`SELECT id FROM Employee`); err == nil ||
		!strings.Contains(err.Error(), "several wrappers") {
		t.Errorf("ambiguous collection: err = %v", err)
	}
	res, err := m.Query(`SELECT id FROM Employee@obj2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("pinned query rows = %d", len(res.Rows))
	}
}

func TestExplainShowsCosts(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	out, err := m.Explain(`SELECT name FROM Employee WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"estimated TotalTime", "scan(Employee@obj1)", "TotalTime="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestHistoryRecordsAndImproves(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	sql := `SELECT name FROM Employee WHERE dept = 3`
	p1, err := m.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	est1 := p1.Cost.TotalTime()
	res, err := m.ExecutePlan(p1)
	if err != nil {
		t.Fatal(err)
	}
	if m.History.Len() == 0 {
		t.Fatal("history should record the executed subquery")
	}
	// Second preparation of the identical query: the query-scope rule now
	// supplies the observed wrapper cost, so the estimate moves toward
	// the measurement.
	p2, err := m.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	est2 := p2.Cost.TotalTime()
	actual := res.ElapsedMS
	if diff1, diff2 := abs(est1-actual), abs(est2-actual); diff2 > diff1 {
		t.Errorf("history estimate %v should be closer to actual %v than first estimate %v", est2, actual, est1)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestWrapperRulesImproveEstimates(t *testing.T) {
	// The same deployment, with and without wrapper rules: the blended
	// estimate of a sequential-scan query must be closer to the measured
	// execution than the generic one. (The object store's real page cost
	// dominates; the generic model can only guess.)
	sql := `SELECT name FROM Employee WHERE salary >= 1450`

	run := func(useRules bool) (est, actual float64) {
		cfg := DefaultConfig()
		cfg.UseWrapperRules = useRules
		cfg.RecordHistory = false
		m := buildMediator(t, cfg)
		p, err := m.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.ExecutePlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return p.Cost.TotalTime(), res.ElapsedMS
	}
	genEst, genActual := run(false)
	blendEst, blendActual := run(true)
	genErr := abs(genEst-genActual) / genActual
	blendErr := abs(blendEst-blendActual) / blendActual
	if blendErr >= genErr {
		t.Errorf("blended error %.3f should beat generic error %.3f (est %v/%v actual %v/%v)",
			blendErr, genErr, blendEst, genEst, blendActual, genActual)
	}
}

func TestRemoteWrapperThroughMediator(t *testing.T) {
	// A full distributed query: the wrapper runs behind the wire protocol
	// (as cmd/wrapperd would host it) and the mediator registers it via
	// DialRemote, pulling schema, statistics and cost rules across.
	store := objstore.Open(objstore.DefaultConfig())
	parts, err := store.CreateCollection("Parts", types.NewSchema(
		types.Field{Name: "pid", Collection: "Parts", Type: types.KindInt},
		types.Field{Name: "weight", Collection: "Parts", Type: types.KindInt},
	), 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		parts.Insert(types.Row{types.Int(int64(i)), types.Int(int64(i % 90))})
	}
	if err := parts.CreateIndex("pid", true); err != nil {
		t.Fatal(err)
	}
	backend := wrapper.NewObjWrapper("remoteparts", store)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go wrapper.Serve(ln, backend)

	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wrapper.DialRemote(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if err := m.Register(rw); err != nil {
		t.Fatal(err)
	}
	// The remote's cost rules were integrated.
	if len(m.Registry.WrapperRules("remoteparts")) == 0 {
		t.Error("remote rules should be integrated at registration")
	}
	res, err := m.Query(`SELECT pid FROM Parts WHERE pid < 25`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.ElapsedMS <= 0 {
		t.Error("the remote's virtual time should be the query's time")
	}
}

func TestOrderByAggregateAlias(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT name, count(*) AS n FROM Employee GROUP BY name ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// 1000 rows over 3 names: 334 (ana), 333, 333 — descending by count.
	if res.Rows[0][1].AsInt() != 334 {
		t.Errorf("first group count = %v", res.Rows[0])
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].AsInt() > res.Rows[i-1][1].AsInt() {
			t.Errorf("not sorted by alias: %v", res.Rows)
		}
	}
}

func TestScalarAggregateNoGroupBy(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	res, err := m.Query(`SELECT count(*) AS n, min(salary) AS lo, max(salary) AS hi FROM Employee`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].AsInt() != 1000 || row[1].AsInt() != 1000 || row[2].AsInt() != 1499 {
		t.Errorf("aggregates = %v", row)
	}
}

func TestAggregateAtIncapableWrapperStaysAtMediator(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	// files cannot aggregate: the plan must hoist the aggregate above the
	// submit.
	p, err := m.Prepare(`SELECT count(*) AS n FROM Notes`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Plan.Kind != algebra.OpAggregate {
		t.Errorf("root should be a mediator aggregate:\n%s", p.Plan)
	}
	if p.Plan.Children[0].Kind != algebra.OpSubmit {
		t.Errorf("aggregate input should be the shipped scan:\n%s", p.Plan)
	}
	res, err := m.ExecutePlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 100 {
		t.Errorf("count = %v", res.Rows[0])
	}
}

func TestAggregatePushedIntoCapableWrapper(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	// The object wrapper aggregates locally: the submit ships one row.
	p, err := m.Prepare(`SELECT count(*) AS n FROM Employee`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Plan.Kind != algebra.OpSubmit || p.Plan.Children[0].Kind != algebra.OpAggregate {
		t.Errorf("aggregate should be pushed into the wrapper:\n%s", p.Plan)
	}
}

// TestOptimizerMatchesServedPrepare pins Mediator.Optimizer.Opt to the
// options the served prepare searches with, which tools replaying a
// search through Optimizer rely on. The template estimator restricts
// candidate pricing to the root's TotalTime, so a prepare's per-node
// capture is complete exactly when its options set CapturePlanCosts:
// with feedback on, and not otherwise.
func TestOptimizerMatchesServedPrepare(t *testing.T) {
	const sql = `SELECT name, dname, text FROM Employee, Dept, Notes WHERE dept = dno AND Employee.id = Notes.emp AND Employee.id < 100`
	for _, c := range []struct {
		name    string
		cfg     func(*Config)
		capture bool
	}{
		{"feedback-off", func(*Config) {}, false},
		{"feedback-on", func(c *Config) { c.Feedback = true }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.cfg(&cfg)
			m := buildMediator(t, cfg)
			if m.Optimizer.Opt.CapturePlanCosts != c.capture {
				t.Fatalf("Optimizer.Opt.CapturePlanCosts = %v, want %v", m.Optimizer.Opt.CapturePlanCosts, c.capture)
			}
			m.Estimator.Options.RequiredVarsOnly = true
			m.Estimator.Options.RootVars = []string{"TotalTime"}
			served, err := m.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			est := m.Estimator.Clone()
			est.Reset()
			replayed, err := optimizer.New(m.Catalog, est, m.Optimizer.Opt).Optimize(served.Block)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := replayed.Plan.Signature(), served.Plan.Signature(); got != want {
				t.Fatalf("replayed plan %s, served %s", got, want)
			}
			if replayed.PlansCosted != served.PlansCosted {
				t.Errorf("replayed search costed %d plans, served %d", replayed.PlansCosted, served.PlansCosted)
			}
			// TotalTime needs no TimeNext anywhere, so only a full
			// capture has it at the root.
			if _, ok := served.Cost.Root.Vars["TimeNext"]; ok != c.capture {
				t.Errorf("served root captures TimeNext = %v, want %v", ok, c.capture)
			}
			var servedNodes, replayedNodes []*algebra.Node
			served.Plan.Walk(func(n *algebra.Node) bool { servedNodes = append(servedNodes, n); return true })
			replayed.Plan.Walk(func(n *algebra.Node) bool { replayedNodes = append(replayedNodes, n); return true })
			for i, n := range servedNodes {
				got, want := replayed.Cost.ByNode[replayedNodes[i]].Vars, served.Cost.ByNode[n].Vars
				if len(got) != len(want) {
					t.Errorf("%s: replayed captures %d variables, served %d", n.Signature(), len(got), len(want))
				}
			}
		})
	}
}
