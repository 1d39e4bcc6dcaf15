package core_test

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/objstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// Example demonstrates the blending mechanism end to end: a wrapper
// exports a specific scan rule, the mediator's generic model covers the
// rest, and the estimate for a select-over-scan plan mixes both.
func Example() {
	// A small object database source.
	store := objstore.Open(objstore.DefaultConfig())
	schema := types.NewSchema(
		types.Field{Collection: "Employee", Name: "id", Type: types.KindInt},
		types.Field{Collection: "Employee", Name: "salary", Type: types.KindInt},
	)
	coll, _ := store.CreateCollection("Employee", schema, 100)
	for i := 0; i < 1000; i++ {
		coll.Insert(types.Row{types.Int(int64(i)), types.Int(int64(1000 + i))})
	}

	// Registration: catalog upload plus rule integration.
	w := wrapper.NewObjWrapper("src", store)
	cat := catalog.New()
	if err := cat.Register(w); err != nil {
		fmt.Println(err)
		return
	}
	reg := core.MustDefaultRegistry()
	rules, _ := costlang.Parse(`
scan(Employee) { TotalTime = 5000; }   # the implementor knows this scan costs 5s
`)
	if err := reg.IntegrateWrapper("src", rules, cat); err != nil {
		fmt.Println(err)
		return
	}

	// Estimate select(scan(Employee), salary = 1500).
	plan := algebra.Select(
		algebra.Scan("src", "Employee"),
		algebra.NewSelPred(algebra.Ref{Collection: "Employee", Attr: "salary"},
			stats.CmpEQ, types.Int(1500)))
	if err := algebra.Resolve(plan, cat); err != nil {
		fmt.Println(err)
		return
	}
	est := core.NewEstimator(reg, cat, core.UniformNet{})
	pc, err := est.Estimate(plan)
	if err != nil {
		fmt.Println(err)
		return
	}
	// The scan's TotalTime comes from the wrapper rule (collection
	// scope); the select's cardinality comes from the generic model's
	// selectivity machinery (1 of 1000 distinct salaries).
	fmt.Printf("scan TotalTime: %.0f ms\n", pc.ByNode[plan.Children[0]].Var("TotalTime", -1))
	fmt.Printf("select CountObject: %.0f\n", pc.Root.Var("CountObject", -1))
	// Output:
	// scan TotalTime: 5000 ms
	// select CountObject: 1
}
