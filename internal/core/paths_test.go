package core

import (
	"fmt"
	"strings"
	"testing"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/costlang"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// legacyIDL is a static wrapper in the paper's Figure 8 style: its rules
// name a collection directly and bind an attribute in the head. It also
// spells what no shipped rule set does: a global a head variable shadows
// (V), a let redefined from itself (rows), and a head variable referenced
// in another case (c for C).
const legacyIDL = `
interface Employee {
  attribute Long salary;
  attribute String Name;

  cardinality extent(out long CountObject, out long TotalSize, out long ObjectSize);
  cardinality attribute(in String AttributeName, out Boolean Indexed,
                        out Long CountDistinct, out Constant Min, out Constant Max);

  cost {
    let Seq = 0.5;
    let V = 3;
    scan(Employee) {
      TotalTime = Employee.CountObject * Seq;
    }
    select(Employee, salary = V) {
      let rows = Employee.CountObject * selectivity(salary, V);
      let rows = rows * 1;
      CountObject = rows;
      TotalSize   = CountObject * Employee.ObjectSize;
      TotalTime   = Employee.CountObject * Seq + rows * 0.1 + Net.Latency;
    }
    project(C) {
      TotalTime = c.TotalTime + C.arity;
    }
  }
};
`

// ruleSetFixture registers an object, a relational and a static wrapper,
// each with its own rule set over the default and local ones, and
// returns resolved plans that put every operator kind at a wrapper and
// at the mediator.
func ruleSetFixture(t *testing.T) (*Estimator, []*algebra.Node) {
	t.Helper()
	ostore := objstore.Open(objstore.DefaultConfig())
	rstore := relstore.Open(relstore.DefaultConfig())
	schema := func(coll string) *types.Schema {
		return types.NewSchema(
			types.Field{Name: "id", Collection: coll, Type: types.KindInt},
			types.Field{Name: "fk", Collection: coll, Type: types.KindInt},
		)
	}
	for _, name := range []string{"A", "B"} {
		coll, err := ostore.CreateCollection(name, schema(name), 64)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 300; r++ {
			coll.Insert(types.Row{types.Int(int64(r)), types.Int(int64(r % 20))})
		}
		if err := coll.CreateIndex("id", name == "A"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := rstore.CreateTable("C", schema("C"), 48)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 120; r++ {
		tbl.Insert(types.Row{types.Int(int64(r)), types.Int(int64(r % 7))})
	}
	tbl.CreateHashIndex("id")
	legacy, err := wrapper.NewStaticWrapper("legacy", legacyIDL)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.DeclareExtent("Employee", stats.ExtentStats{CountObject: 10000, TotalSize: 1_200_000, ObjectSize: 120}); err != nil {
		t.Fatal(err)
	}
	if err := legacy.DeclareAttribute("Employee", "salary", stats.AttributeStats{
		Indexed: true, CountDistinct: 10000, Min: types.Int(1000), Max: types.Int(30000)}); err != nil {
		t.Fatal(err)
	}

	cat := catalog.New()
	reg := MustDefaultRegistry()
	for _, w := range []wrapper.Wrapper{wrapper.NewObjWrapper("obj1", ostore), wrapper.NewRelWrapper("rel1", rstore), legacy} {
		if err := cat.Register(w); err != nil {
			t.Fatal(err)
		}
		file, err := costlang.Parse(w.CostRules())
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.IntegrateWrapper(w.Name(), file, cat); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEstimator(reg, cat, netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005}))

	scan := algebra.Scan
	lt := func(coll string, v int64) *algebra.Predicate {
		return algebra.NewSelPred(ref(coll, "id"), stats.CmpLT, types.Int(v))
	}
	eq := func(l, r string) *algebra.Predicate {
		return algebra.NewJoinPred(ref(l, "fk"), ref(r, "id"))
	}
	selA := algebra.Select(scan("obj1", "A"), lt("A", 100))
	plans := []*algebra.Node{
		scan("obj1", "A"),
		selA,
		algebra.Submit(algebra.Select(selA, algebra.NewSelPred(ref("A", "fk"), stats.CmpEQ, types.Int(3))), "obj1"),
		algebra.Submit(algebra.Select(scan("obj1", "B"), algebra.NewSelPred(ref("B", "id"), stats.CmpEQ, types.Int(7))), "obj1"),
		algebra.Project(algebra.Submit(selA, "obj1"), "A.fk"),
		algebra.Sort(algebra.Submit(scan("obj1", "B"), "obj1"), algebra.SortKey{Attr: ref("B", "fk")}),
		algebra.DupElim(algebra.Submit(algebra.Project(scan("rel1", "C"), "C.fk"), "rel1")),
		algebra.Aggregate(algebra.Submit(scan("rel1", "C"), "rel1"), []algebra.Ref{ref("C", "fk")},
			[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}),
		algebra.Submit(algebra.Aggregate(scan("obj1", "A"), []algebra.Ref{ref("A", "fk")},
			[]algebra.AggSpec{{Func: algebra.AggCount, Star: true, As: "n"}}), "obj1"),
		algebra.Submit(algebra.Join(scan("obj1", "A"), scan("obj1", "B"), eq("A", "B")), "obj1"),
		algebra.Submit(algebra.Join(scan("rel1", "C"), scan("rel1", "C"), eq("C", "C")), "rel1"),
		algebra.Join(algebra.Submit(selA, "obj1"), algebra.Submit(scan("rel1", "C"), "rel1"), eq("A", "C")),
		algebra.Join(algebra.Submit(scan("rel1", "C"), "rel1"), algebra.Submit(scan("obj1", "B"), "obj1"),
			eq("C", "B").And(algebra.NewJoinPred(ref("C", "id"), ref("B", "fk")))),
		algebra.Union(algebra.Submit(scan("obj1", "A"), "obj1"), algebra.Submit(scan("obj1", "B"), "obj1")),
		algebra.Select(algebra.Submit(scan("legacy", "Employee"), "legacy"),
			algebra.NewSelPred(ref("Employee", "salary"), stats.CmpGT, types.Int(20000))),
		algebra.Submit(algebra.Select(scan("legacy", "Employee"),
			algebra.NewSelPred(ref("Employee", "salary"), stats.CmpEQ, types.Int(15000))), "legacy"),
		algebra.Submit(algebra.Project(scan("legacy", "Employee"), "Employee.Name"), "legacy"),
	}
	for _, p := range plans {
		if err := algebra.Resolve(p, cat); err != nil {
			t.Fatalf("%s: %v", p.Signature(), err)
		}
	}
	return e, plans
}

// extraPaths are paths no shipped rule spells, run through every rule so
// that each resolution step and each way out of it is exercised.
func extraPaths(r *Rule, colls []string) [][]string {
	paths := [][]string{
		{"Arity"}, {"ARITY"}, {"CountObject"}, {"totaltime"}, {"TimeNext"},
		{"PageSize"}, {"IO"}, {"Seq"}, {"nosuch"},
		{"Net", "Latency"}, {"NET", "perbyte"}, {"Net", "Bogus"}, {"Net"}, {"Net", "Latency", "x"},
	}
	for _, c := range colls {
		paths = append(paths, []string{c, "CountObject"}, []string{c, "countpage"}, []string{c, "Arity"},
			[]string{c, "id", "Indexed"}, []string{c, "salary", "max"}, []string{c, "nosuch"})
	}
	for _, let := range r.Lets {
		paths = append(paths, []string{let.Var}, []string{let.Var, "CountObject"})
	}
	var names []string
	for _, s := range r.slots {
		names = append(names, s, strings.ToLower(s), strings.ToUpper(s))
	}
	for _, s := range names {
		paths = append(paths, []string{s}, []string{s, "CountObject"}, []string{s, "TotalTime"},
			[]string{s, "TimeFirst"}, []string{s, "Arity"}, []string{s, "CountPage"}, []string{s, "ObjectSize"},
			[]string{s, "TotalSize"}, []string{s, "nosuch"}, []string{s, "id", "CountDistinct"},
			[]string{s, "fk", "Min"}, []string{s, "salary", "Clustered"}, []string{s, "id", "nosuch"},
			[]string{s, "a", "b", "c"})
		for _, s2 := range names {
			paths = append(paths, []string{s, s2, "Indexed"}, []string{s, s2, "Max"})
		}
	}
	return paths
}

// TestCompiledPathsMatchNameResolution runs every parameter path of the
// default, local and three wrapper rule sets — as classified at
// integration — against name resolution (nameLookup) on every node and
// every matched rule of the fixture plans: with the node's variables as
// estimated and with none computed, and with every prefix of the rule's
// lets evaluated. Paths no rule spells go through Lookup, which
// classifies on the fly.
func TestCompiledPathsMatchNameResolution(t *testing.T) {
	e, plans := ruleSetFixture(t)
	colls := []string{"A", "B", "C", "Employee", "nosuch"}
	checked := 0
	for _, plan := range plans {
		root, err := e.run(plan, nil, false)
		if err != nil {
			t.Fatalf("%s: %v", plan.Signature(), err)
		}
		var ctxs []*nodeCtx
		var walk func(c *nodeCtx)
		walk = func(c *nodeCtx) {
			ctxs = append(ctxs, c)
			for _, ch := range c.children {
				walk(ch)
			}
		}
		walk(root)
		check := func(phase string) {
			for _, ctx := range ctxs {
				for ri, r := range ctx.mrules {
					env := &evalEnv{est: e, sc: e.scr, ctx: ctx, rule: r, match: ctx.mmatches[ri]}
					locals := make([]letVal, len(r.Lets))
					for i, let := range r.Lets {
						locals[i] = letVal{name: let.Var, val: types.Float(float64(1000 + i))}
					}
					for k := 0; k <= len(locals); k++ {
						env.locals = locals[:k]
						progs := append(append([]Formula(nil), r.Lets...), r.Formulas...)
						for _, f := range progs {
							env.prog = &program{refs: f.refs}
							for i, path := range f.Prog.Paths {
								got, gotOK := env.LookupIndex(i, path)
								want, wantOK := nameLookup(env, path)
								if gotOK != wantOK || got != want {
									t.Fatalf("%s: %s on %s, rule %s, %d lets: %v resolved to %v, %v; by name %v, %v",
										phase, f.Prog.Source, ctx.node.Kind, r.Source, k, path, got, gotOK, want, wantOK)
								}
								checked++
							}
						}
						for _, path := range extraPaths(r, colls) {
							got, gotOK := env.Lookup(path)
							want, wantOK := nameLookup(env, path)
							if gotOK != wantOK || got != want {
								t.Fatalf("%s: on %s, rule %s, %d lets: %v resolved to %v, %v; by name %v, %v",
									phase, ctx.node.Kind, r.Source, k, path, got, gotOK, want, wantOK)
							}
						}
					}
				}
			}
		}
		check("estimated " + plan.Signature())
		saved := make([]VarSet, len(ctxs))
		for i, c := range ctxs {
			saved[i], c.varsSet = c.varsSet, 0
		}
		check("unestimated " + plan.Signature())
		for i, c := range ctxs {
			c.varsSet = saved[i]
		}
	}
	// Every rule set took part: its rules matched some node.
	for _, src := range []string{"default-scope", "local-scope", "wrapper obj1", "wrapper rel1", "wrapper legacy"} {
		if !matchedRuleFrom(e, plans, src) {
			t.Errorf("no rule of %q matched a fixture node", src)
		}
	}
	if checked == 0 {
		t.Fatal("no formula path was checked")
	}
	t.Logf("%d formula path resolutions checked", checked)
}

// matchedRuleFrom reports whether a rule whose Source starts with prefix
// matched some node of the plans.
func matchedRuleFrom(e *Estimator, plans []*algebra.Node, prefix string) bool {
	for _, plan := range plans {
		root, err := e.run(plan, nil, false)
		if err != nil {
			panic(fmt.Sprint(err))
		}
		var found bool
		var walk func(c *nodeCtx)
		walk = func(c *nodeCtx) {
			for _, r := range c.mrules {
				if len(r.Source) >= len(prefix) && r.Source[:len(prefix)] == prefix {
					found = true
				}
			}
			for _, ch := range c.children {
				walk(ch)
			}
		}
		walk(root)
		if found {
			return true
		}
	}
	return false
}
