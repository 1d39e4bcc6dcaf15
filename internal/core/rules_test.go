package core

import (
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/costlang"
	"disco/internal/stats"
	"disco/internal/types"
)

// tryMatch adapts matchRule's pooled-result signature for tests.
func tryMatch(r *Rule, ctx *nodeCtx) (*ruleMatch, bool) {
	m := &matchResult{}
	ok := matchRule(r, ctx, m)
	return &ruleMatch{matchResult: m, rule: r}, ok
}

// ruleMatch is a match result that looks bindings up by head name.
type ruleMatch struct {
	*matchResult
	rule *Rule
}

func (m *ruleMatch) lookup(name string) (binding, bool) {
	b := m.slot(m.rule.slotOf(name))
	return *b, b.kind != bindNone
}

func mustParse(t *testing.T, src string) *costlang.File {
	t.Helper()
	f, err := costlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestIntegrateWrapperClassification(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	src := `
scan(C) { TotalTime = 1; }                            # wrapper scope
scan(Employee) { TotalTime = 2; }                     # collection scope
select(Employee, P) { TotalTime = 3; }                # collection scope
select(Employee, salary = V) { TotalTime = 4; }       # predicate scope (attr bound)
select(Employee, salary = 77) { TotalTime = 5; }      # predicate scope (attr+value)
select(C, A = V) { TotalTime = 6; }                   # wrapper scope... op bound
join(Employee, Manager, id = id2) { TotalTime = 7; }  # collection scope, id bound
`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	rules := reg.WrapperRules("src1")
	if len(rules) != 7 {
		t.Fatalf("rules = %d", len(rules))
	}
	// Rules are sorted most-specific-first.
	byTime := map[float64]*Rule{}
	for _, r := range rules {
		env := struct{}{}
		_ = env
		// Identify rules by their constant TotalTime body.
		v, err := r.Formulas[0].Prog.Eval(nullEnv{})
		if err != nil {
			t.Fatalf("eval %s: %v", r, err)
		}
		byTime[v.AsFloat()] = r
	}
	expectScope := map[float64]Scope{
		1: ScopeWrapper,
		2: ScopeCollection,
		3: ScopeCollection,
		4: ScopePredicate,
		5: ScopePredicate,
		6: ScopeWrapper,
		7: ScopePredicate, // attribute id bound
	}
	for tag, want := range expectScope {
		r := byTime[tag]
		if r == nil {
			t.Fatalf("rule %v not found", tag)
		}
		if r.Scope != want {
			t.Errorf("rule %v: scope = %s, want %s (%s)", tag, r.Scope, want, r)
		}
	}
	// Specificity ordering within predicate scope: value-bound rule (5)
	// must precede attr-only rule (4).
	pos := map[float64]int{}
	for i, r := range rules {
		v, _ := r.Formulas[0].Prog.Eval(nullEnv{})
		pos[v.AsFloat()] = i
	}
	if pos[5] > pos[4] {
		t.Errorf("bound-value rule should sort before bound-attr rule: %v", pos)
	}
	if pos[2] > pos[1] || pos[4] > pos[2] {
		t.Errorf("scope ordering violated: %v", pos)
	}
}

// nullEnv is an Env with no variables for constant-body rules.
type nullEnv struct{}

func (nullEnv) Lookup([]string) (types.Constant, bool) { return types.Null, false }
func (nullEnv) Call(string, []types.Constant) (types.Constant, error) {
	return types.Null, nil
}

func TestIntegrateErrors(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	cases := []string{
		`frobnicate(C) { TotalTime = 1; }`,    // unknown operator
		`select(C, A = A) { TotalTime = 1; }`, // duplicate head variable
		`join(C, C, P) { TotalTime = 1; }`,    // duplicate collection var
	}
	for _, src := range cases {
		if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err == nil {
			t.Errorf("IntegrateWrapper(%q) should fail", src)
		}
	}
	if err := reg.IntegrateWrapper("", mustParse(t, `scan(C) { TotalTime = 1; }`), view); err == nil {
		t.Error("empty wrapper name should fail")
	}
}

func TestIntegrateGlobalLets(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	src := `
let PageSize = 4096;
let TwoPages = PageSize * 2;
scan(C) { TotalTime = TwoPages; }`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	r := reg.WrapperRules("src1")[0]
	if r.Globals["TwoPages"].AsInt() != 8192 {
		t.Errorf("global let = %v", r.Globals["TwoPages"])
	}
}

func TestDropWrapper(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	if err := reg.IntegrateWrapper("src1", mustParse(t, `scan(C) { TotalTime = 1; }`), view); err != nil {
		t.Fatal(err)
	}
	if reg.RuleCount() != 1 {
		t.Fatalf("count = %d", reg.RuleCount())
	}
	reg.DropWrapper("src1")
	if reg.RuleCount() != 0 {
		t.Errorf("count after drop = %d", reg.RuleCount())
	}
}

func TestDefaultRegistryLoads(t *testing.T) {
	reg := MustDefaultRegistry()
	if reg.RuleCount() < 20 {
		t.Errorf("generic model has %d rules, expected a full operator set", reg.RuleCount())
	}
	// Defaults must cover every operator for TotalTime.
	ops := []algebra.OpKind{algebra.OpScan, algebra.OpSelect, algebra.OpProject,
		algebra.OpSort, algebra.OpJoin, algebra.OpUnion, algebra.OpDupElim,
		algebra.OpAggregate, algebra.OpSubmit}
	for _, op := range ops {
		found := false
		_, defaults, _, _ := reg.rulesForNode("", &algebra.Node{Kind: op})
		for _, r := range defaults {
			for _, f := range r.Formulas {
				found = found || (r.Scope == ScopeDefault && f.Var == "TotalTime")
			}
		}
		if !found {
			t.Errorf("no default TotalTime rule for %s", op)
		}
	}
}

func TestMatchRuleScan(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	src := `
scan(Employee) { TotalTime = 1; }
scan(C) { TotalTime = 2; }`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	rules := reg.WrapperRules("src1")
	scanEmp := &nodeCtx{node: algebra.Scan("src1", "Employee")}
	scanMgr := &nodeCtx{node: algebra.Scan("src1", "Manager")}

	var collRule, varRule *Rule
	for _, r := range rules {
		if r.Scope == ScopeCollection {
			collRule = r
		} else {
			varRule = r
		}
	}
	if _, ok := tryMatch(collRule, scanEmp); !ok {
		t.Error("collection rule should match Employee scan")
	}
	if _, ok := tryMatch(collRule, scanMgr); ok {
		t.Error("collection rule should not match Manager scan")
	}
	if _, ok := tryMatch(varRule, scanMgr); !ok {
		t.Error("variable rule should match any scan")
	}
	if _, ok := tryMatch(varRule, &nodeCtx{node: algebra.DupElim(algebra.Scan("src1", "Employee")),
		children: []*nodeCtx{scanEmp}}); ok {
		t.Error("scan rule must not match dupelim node")
	}
}

func TestMatchRuleSelectPatterns(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	src := `
select(Employee, salary = 77) { TotalTime = 1; }
select(Employee, salary = V)  { TotalTime = 2; }
select(Employee, P)           { TotalTime = 3; }
select(C, A = V)              { TotalTime = 4; }
select(C, A > V)              { TotalTime = 5; }`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	rules := reg.WrapperRules("src1")
	tag := func(r *Rule) float64 {
		v, _ := r.Formulas[0].Prog.Eval(nullEnv{})
		return v.AsFloat()
	}

	scanCtx := &nodeCtx{node: algebra.Scan("src1", "Employee"),
		derivedColl: "Employee", derivedWrapper: "src1", wrapper: "src1"}
	mkSel := func(p *algebra.Predicate) *nodeCtx {
		return &nodeCtx{
			node:     algebra.Select(scanCtx.node, p),
			wrapper:  "src1",
			children: []*nodeCtx{scanCtx},
		}
	}
	sel77 := mkSel(algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(77)))
	sel99 := mkSel(algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(99)))
	selGT := mkSel(algebra.NewSelPred(ref("Employee", "salary"), stats.CmpGT, types.Int(10)))
	selName := mkSel(algebra.NewSelPred(ref("Employee", "name"), stats.CmpEQ, types.Str("Adiba")))

	expectMatch := map[float64]map[*nodeCtx]bool{
		1: {sel77: true, sel99: false, selGT: false, selName: false},
		2: {sel77: true, sel99: true, selGT: false, selName: false},
		3: {sel77: true, sel99: true, selGT: true, selName: true},
		4: {sel77: true, sel99: true, selGT: false, selName: true},
		5: {sel77: false, selGT: true},
	}
	names := map[*nodeCtx]string{sel77: "sel77", sel99: "sel99", selGT: "selGT", selName: "selName"}
	for _, r := range rules {
		want, ok := expectMatch[tag(r)]
		if !ok {
			continue
		}
		for ctx, expect := range want {
			if _, got := tryMatch(r, ctx); got != expect {
				t.Errorf("rule %v vs %s: match = %v, want %v", tag(r), names[ctx], got, expect)
			}
		}
	}
}

func TestMatchBindings(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	if err := reg.IntegrateWrapper("src1",
		mustParse(t, `select(C, A = V) { TotalTime = 1; }`), view); err != nil {
		t.Fatal(err)
	}
	rule := reg.WrapperRules("src1")[0]
	scanCtx := &nodeCtx{node: algebra.Scan("src1", "Employee"),
		derivedColl: "Employee", derivedWrapper: "src1", wrapper: "src1"}
	sel := &nodeCtx{
		node:     algebra.Select(scanCtx.node, algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(42))),
		wrapper:  "src1",
		children: []*nodeCtx{scanCtx},
	}
	m, ok := tryMatch(rule, sel)
	if !ok {
		t.Fatal("no match")
	}
	if b, ok := m.lookup("C"); !ok || b.kind != bindColl || b.coll != "Employee" || b.ctx != scanCtx {
		t.Errorf("C binding = %+v", b)
	}
	if b, ok := m.lookup("A"); !ok || b.kind != bindAttr || b.str != "salary" {
		t.Errorf("A binding = %+v", b)
	}
	if b, ok := m.lookup("V"); !ok || b.kind != bindValue || b.val.AsInt() != 42 {
		t.Errorf("V binding = %+v", b)
	}
	if !m.hasSel || m.selOp != stats.CmpEQ || m.selAttr != "salary" {
		t.Errorf("sel context = %+v", m)
	}
}

func TestMatchJoinFlipped(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	// id = author binds both attribute names (id is an attribute of src1
	// collections; author is not, so it stays a variable here... use the
	// default-style head with variables to test flipping).
	if err := reg.IntegrateWrapper("src1",
		mustParse(t, `join(C1, C2, A1 = A2) { TotalTime = 1; }`), view); err != nil {
		t.Fatal(err)
	}
	rule := reg.WrapperRules("src1")[0]
	empCtx := &nodeCtx{node: algebra.Scan("src1", "Employee"), derivedColl: "Employee", derivedWrapper: "src1"}
	mgrCtx := &nodeCtx{node: algebra.Scan("src1", "Manager"), derivedColl: "Manager", derivedWrapper: "src1"}
	join := &nodeCtx{
		node:     algebra.Join(empCtx.node, mgrCtx.node, algebra.NewJoinPred(ref("Employee", "id"), ref("Manager", "id"))),
		children: []*nodeCtx{empCtx, mgrCtx},
	}
	m, ok := tryMatch(rule, join)
	if !ok {
		t.Fatal("join rule should match")
	}
	if b, _ := m.lookup("A1"); b.str != "id" {
		t.Errorf("A1 = %q", b.str)
	}
	if b, _ := m.lookup("A2"); b.str != "id" {
		t.Errorf("A2 = %q", b.str)
	}
}

func TestSpecificityOrderingPaperExample(t *testing.T) {
	// The paper's §4.2 ordering example: more bound parameters sort
	// first.
	view := newFixtureView()
	reg := NewRegistry(nil)
	src := `
select(R, P) { TotalTime = 1; }
select(Employee, P) { TotalTime = 2; }
select(Employee, salary = A) { TotalTime = 3; }
select(Employee, salary = 77) { TotalTime = 4; }`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	rules := reg.WrapperRules("src1")
	var order []float64
	for _, r := range rules {
		v, _ := r.Formulas[0].Prog.Eval(nullEnv{})
		order = append(order, v.AsFloat())
	}
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ordering = %v, want %v", order, want)
		}
	}
}

func TestRuleString(t *testing.T) {
	view := newFixtureView()
	reg := NewRegistry(nil)
	if err := reg.IntegrateWrapper("src1",
		mustParse(t, `select(Employee, salary = V) { TotalTime = 1; CountObject = 2; }`), view); err != nil {
		t.Fatal(err)
	}
	s := reg.WrapperRules("src1")[0].String()
	for _, want := range []string{"predicate", "select(Employee, salary = ?V)", "TotalTime", "CountObject"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// TestAmbiguousJoinHeadsWithinScope documents the paper's §4.2 open case:
// for join(Employee, Manager, P), both join(Employee, R2, P) and
// join(R1, Manager, P) match at the same scope and specificity; all their
// formulas are evaluated and the lowest value wins, with registration
// order as the deterministic tiebreak.
func TestAmbiguousJoinHeadsWithinScope(t *testing.T) {
	view := newFixtureView()
	reg := MustDefaultRegistry()
	src := `
join(Employee, R2, P) { TotalTime = 400; }
join(R1, Manager, P)  { TotalTime = 300; }`
	if err := reg.IntegrateWrapper("src1", mustParse(t, src), view); err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(reg, view, UniformNet{})
	plan := resolve(t, algebra.Join(
		algebra.Scan("src1", "Employee"),
		algebra.Scan("src1", "Manager"),
		algebra.NewJoinPred(ref("Employee", "id"), ref("Manager", "id"))))
	pc, err := e.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ambiguous min", pc.Root.Vars["TotalTime"], 300, 0)
}
