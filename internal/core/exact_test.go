package core

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// salarySubmit is the submit node of one exact subquery shape: a salary
// point selection shipped to src1.
func salarySubmit(t testing.TB, salary int64) *algebra.Node {
	t.Helper()
	return resolve(t, algebra.Submit(algebra.Select(
		algebra.Scan("src1", "Employee"),
		algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(salary))), "src1"))
}

// historyRule builds what the history recorder publishes for a submit:
// an exact, term-less rule with one constant formula.
func historyRule(t *testing.T, submit *algebra.Node, totalTime float64) *Rule {
	t.Helper()
	return &Rule{
		Op:       algebra.OpSubmit,
		Exact:    submit,
		Formulas: []Formula{{Var: "TotalTime", Prog: mustCompileConst(t, totalTime)}},
	}
}

// TestExactRulesCostNothingToOthers: a wrapper's history rules live in a
// hash index, so estimating a submit touches the same number of rules
// whether the wrapper has none or five thousand of them — plus the one
// that names this very submit.
func TestExactRulesCostNothingToOthers(t *testing.T) {
	e := newTestEstimator(t)
	plan := salarySubmit(t, 1000)
	touched := func() int {
		t.Helper()
		if _, err := e.EstimateRoot(plan); err != nil {
			t.Fatal(err)
		}
		return e.scr.rulesMatched
	}
	base := touched()

	const shapes = 5000
	before := e.Registry.RuleCount()
	for i := 1; i <= shapes; i++ {
		e.Registry.AddQueryRule("src1", historyRule(t, salarySubmit(t, 1000+int64(i)), float64(i)))
	}
	if got := e.Registry.RuleCount() - before; got != shapes {
		t.Fatalf("RuleCount grew by %d, want %d", got, shapes)
	}
	if got := len(e.Registry.WrapperRules("src1")); got != shapes {
		t.Fatalf("WrapperRules lists %d rules, want %d", got, shapes)
	}
	if got := touched(); got != base {
		t.Errorf("with %d history rules for other shapes, estimation touched %d rules, want %d", shapes, got, base)
	}

	own := historyRule(t, plan, 77)
	e.Registry.AddQueryRule("src1", own)
	if got := touched(); got != base+1 {
		t.Errorf("with its own history rule, estimation touched %d rules, want %d", got, base+1)
	}
	rc, err := e.EstimateRoot(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rc.TotalTime() != 77 {
		t.Errorf("TotalTime = %v, want the history rule's 77", rc.TotalTime())
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(100, func() { touched() }); avg > 0 {
			t.Errorf("EstimateRoot through the exact index allocates %.1f objects/run, want 0", avg)
		}
	}

	// A repeat observation swaps the pointer; a stale one, or one that is
	// not an exact rule, is refused.
	if e.Registry.ReplaceQueryRule("src1", own, &Rule{Op: algebra.OpSubmit}) {
		t.Error("ReplaceQueryRule accepted a replacement that names no exact subquery")
	}
	fresh := historyRule(t, plan, 88)
	if !e.Registry.ReplaceQueryRule("src1", own, fresh) {
		t.Fatal("ReplaceQueryRule refused the published rule")
	}
	if e.Registry.ReplaceQueryRule("src1", own, historyRule(t, plan, 99)) {
		t.Error("ReplaceQueryRule accepted a rule that is no longer published")
	}
	if rc, _ := e.EstimateRoot(plan); rc.TotalTime() != 88 {
		t.Errorf("TotalTime after replace = %v, want 88", rc.TotalTime())
	}
	if got := e.Registry.RuleCount() - before; got != shapes+1 {
		t.Errorf("RuleCount grew by %d after a replace, want %d", got, shapes+1)
	}

	// Eviction and re-registration both forget.
	if !e.Registry.RemoveQueryRule("src1", fresh) || e.Registry.RemoveQueryRule("src1", fresh) {
		t.Error("RemoveQueryRule should succeed exactly once")
	}
	if got := touched(); got != base {
		t.Errorf("after removal estimation touched %d rules, want %d", got, base)
	}
	e.Registry.DropWrapper("src1")
	if got := e.Registry.RuleCount() - before; got != 0 {
		t.Errorf("DropWrapper left %d rules behind", got)
	}
}

// TestExactRuleLevelOrder: the indexed rule lands where the sorted bucket
// would have held it — over every wrapper rule, the predicate-scope one
// included.
func TestExactRuleLevelOrder(t *testing.T) {
	e := newTestEstimator(t)
	plan := salarySubmit(t, 1000)
	reg := e.Registry

	// A predicate-scope and a wrapper-scope rule for the same submit, put
	// in the bucket the way integration would, wrapper rule first.
	bucket := []*Rule{
		{Op: algebra.OpSubmit, Scope: ScopeWrapper, Wrapper: "src1", Funcs: reg.baseFuncs,
			Terms:    []HeadTerm{{Kind: TermVar, Name: "C"}},
			Formulas: []Formula{{Var: "TotalTime", Prog: mustCompileConst(t, 100)}}},
		{Op: algebra.OpSubmit, Scope: ScopePredicate, Specificity: 1, Wrapper: "src1", Funcs: reg.baseFuncs,
			Terms:    []HeadTerm{{Kind: TermCollection, Name: "Employee"}},
			Formulas: []Formula{{Var: "TotalTime", Prog: mustCompileConst(t, 300)}}},
	}
	for i, r := range bucket {
		r.Seq = 1000 + i
		r.Finalize()
	}
	sortRules(bucket)
	reg.byWrapper["src1"] = bucket
	reg.byWrapperOp["src1"] = indexByOp(bucket)
	reg.AddQueryRule("src1", historyRule(t, plan, 200))

	root, err := e.run(plan, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []Scope{ScopeQuery, ScopePredicate, ScopeWrapper}
	if len(root.levels) < len(want) {
		t.Fatalf("submit matched %d levels, want at least %d", len(root.levels), len(want))
	}
	for i, s := range want {
		if got := root.levels[i].scope; got != s {
			t.Errorf("level %d is %s-scope, want %s", i, got, s)
		}
	}
	if got := root.vars[idxTotalTime]; got != 200 {
		t.Errorf("TotalTime = %v, want the query rule's 200", got)
	}
	if got := reg.WrapperRules("src1"); len(got) != 3 || got[0].Scope != ScopeQuery ||
		got[1].Scope != ScopePredicate || got[2].Scope != ScopeWrapper {
		t.Errorf("WrapperRules order = %v", got)
	}
}
