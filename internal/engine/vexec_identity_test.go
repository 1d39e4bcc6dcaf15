package engine

import (
	"reflect"
	"testing"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/netsim"
	"disco/internal/refeval"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// naiveExec is the engine's oracle: the naive plan evaluator computes the
// rows, running every submit on its wrapper and shipping the result, and
// the mediator operators' virtual time is then charged to m from the row
// counts it observed, with the cost-model formulas written out once more.
// The identity tests run it against Engine.Execute on identical fresh
// deployments: rows must match bit for bit and the virtual elapsed time
// must agree to float round-off.
func naiveExec(e *Engine, m *netsim.Meter, plan *algebra.Node) ([]types.Row, error) {
	out := make(map[*algebra.Node]float64)
	rows, err := refeval.Eval(plan, func(n *algebra.Node) ([]types.Row, bool, error) {
		if n.Kind != algebra.OpSubmit {
			return nil, false, nil
		}
		res, err := e.wrappers[n.Wrapper].Execute(n.Children[0])
		if err != nil {
			return nil, true, err
		}
		m.Add(res.VirtualMS + e.net.LinkFor(n.Wrapper).TransferMS(res.Bytes))
		return res.Rows, true, nil
	}, func(n *algebra.Node, rows []types.Row) { out[n] = float64(len(rows)) })
	if err != nil {
		return nil, err
	}
	plan.Walk(func(n *algebra.Node) bool {
		if n.Kind == algebra.OpSubmit {
			return false
		}
		in := out[n.Children[0]]
		switch n.Kind {
		case algebra.OpSelect:
			m.Add(in * core.MedPerPred)
		case algebra.OpProject:
			m.Add(in * core.MedProjPerObj)
		case algebra.OpSort:
			m.Add(nLogN(int(in)) * core.MedSortPerObj)
		case algebra.OpDupElim:
			m.Add(in * core.MedHashPerObj)
		case algebra.OpAggregate:
			m.Add(in*core.MedHashPerObj + out[n]*core.MedPerObj)
		case algebra.OpUnion:
			m.Add(out[n] * core.MedPerObj)
		case algebra.OpJoin:
			right := out[n.Children[1]]
			equi := false
			for _, c := range n.Pred.JoinComparisons() {
				equi = equi || c.Op == stats.CmpEQ
			}
			if equi {
				m.Add((in+right)*core.MedHashPerObj + out[n]*core.MedPerObj)
			} else {
				m.Add(in * right * core.MedJoinPerPair)
			}
		}
		return true
	})
	return rows, nil
}

// identityPlans are the plan shapes the equivalence tests cover — every
// mediator operator over real wrapper submits.
func identityPlans(t *testing.T, d *deployment) map[string]*algebra.Node {
	t.Helper()
	subEmp := func() *algebra.Node { return algebra.Submit(algebra.Scan("obj1", "Employee"), "obj1") }
	subDept := func() *algebra.Node { return algebra.Submit(algebra.Scan("rel1", "Dept"), "rel1") }
	empDept := algebra.Ref{Collection: "Employee", Attr: "dept"}
	deptDno := algebra.Ref{Collection: "Dept", Attr: "dno"}
	thetaPred := &algebra.Predicate{Conjuncts: []algebra.Comparison{{
		Left: empDept, Op: stats.CmpLT, RightAttr: &deptDno}}}
	plans := map[string]*algebra.Node{
		"joinProject": algebra.Project(
			algebra.Join(subEmp(), subDept(), algebra.NewJoinPred(empDept, deptDno)),
			"Employee.name", "Dept.dname"),
		"sortAggSelect": algebra.Sort(
			algebra.Aggregate(
				algebra.Select(subEmp(), algebra.NewSelPred(algebra.Ref{Attr: "dept"}, stats.CmpLT, types.Int(5))),
				[]algebra.Ref{empDept},
				[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}),
			algebra.SortKey{Attr: algebra.Ref{Attr: "dept"}, Desc: true}),
		"unionDupElim": algebra.DupElim(algebra.Union(
			algebra.Submit(algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(10))), "obj1"),
			algebra.Submit(algebra.Select(algebra.Scan("obj1", "Employee"),
				algebra.NewSelPred(algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(5))), "obj1"))),
		"thetaJoin": algebra.Join(subEmp(), subDept(), thetaPred),
	}
	for name, p := range plans {
		if err := algebra.Resolve(p, d.cat); err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
	}
	return plans
}

// TestVectorizedMatchesLegacy: the engine with no spill budget must
// reproduce the naive executor bit for bit — rows, order, and
// virtual elapsed time (to float round-off from charge-summation order).
func TestVectorizedMatchesLegacy(t *testing.T) {
	for name := range identityPlans(t, buildDeployment(t)) {
		t.Run(name, func(t *testing.T) {
			dLegacy := buildDeployment(t)
			legacyPlan := identityPlans(t, dLegacy)[name]
			var want netsim.Meter
			wantRows, err := naiveExec(dLegacy.engine, &want, legacyPlan)
			if err != nil {
				t.Fatal(err)
			}
			wantMS := want.MS()

			dNew := buildDeployment(t)
			res, err := dNew.engine.Execute(identityPlans(t, dNew)[name])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantRows, res.Rows) {
				if len(wantRows) != len(res.Rows) {
					t.Fatalf("rows = %d, legacy %d", len(res.Rows), len(wantRows))
				}
				for i := range wantRows {
					if !reflect.DeepEqual(wantRows[i], res.Rows[i]) {
						t.Fatalf("row %d = %s, legacy %s", i, res.Rows[i], wantRows[i])
					}
				}
			}
			if diff := res.ElapsedMS - wantMS; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("elapsed = %v, legacy %v", res.ElapsedMS, wantMS)
			}
		})
	}
}

// TestSpilledExecutionDegradesGracefully: a tiny memory budget forces
// mediator-side joins to spill; the answer must stay multiset-identical
// (here: identical after sorting, since the join output is unique rows).
func TestSpilledExecutionDegradesGracefully(t *testing.T) {
	dSeq := buildDeployment(t)
	seqRes, err := dSeq.engine.Execute(identityPlans(t, dSeq)["joinProject"])
	if err != nil {
		t.Fatal(err)
	}
	dSp := buildDeployment(t)
	dSp.engine.Exec = vexec.Options{MemBytes: 1 << 10, SpillDir: t.TempDir()}
	spRes, err := dSp.engine.Execute(identityPlans(t, dSp)["joinProject"])
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Rows) != len(spRes.Rows) {
		t.Fatalf("spilled rows = %d, in-memory %d", len(spRes.Rows), len(seqRes.Rows))
	}
	seen := make(map[string]int)
	for _, r := range seqRes.Rows {
		seen[r.Key()]++
	}
	for _, r := range spRes.Rows {
		seen[r.Key()]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("multiset mismatch at key %q (%+d)", k, c)
		}
	}
}
