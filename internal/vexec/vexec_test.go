package vexec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"disco/internal/algebra"
	"disco/internal/refeval"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// The equivalence suite: every plan shape runs through the vectorized
// pipeline and through the naive plan evaluator (internal/refeval), and
// the outputs must be bit-identical — reflect.DeepEqual over the row
// slices, which compares constant kinds and exact float bits, not just
// Equal-ity.

// testCatalog maps collection -> (schema, rows) and doubles as the
// algebra.SchemaSource for Resolve.
type testCatalog map[string]struct {
	schema *types.Schema
	rows   []types.Row
}

func (c testCatalog) CollectionSchema(wrapper, collection string) (*types.Schema, error) {
	t, ok := c[collection]
	if !ok {
		return nil, fmt.Errorf("no collection %s", collection)
	}
	return t.schema, nil
}

// scanLeaf serves OpScan nodes from the catalog (the role the engine's
// submit hook / wrapper's store hook play in production).
func (c testCatalog) scanLeaf(n *algebra.Node) ([]types.Row, bool, error) {
	if n.Kind != algebra.OpScan {
		return nil, false, nil
	}
	t, ok := c[n.Collection]
	if !ok {
		return nil, false, fmt.Errorf("no collection %s", n.Collection)
	}
	return t.rows, true, nil
}

// makeCatalog builds the two seeded test tables: parts (wide, skewed
// categories, duplicate-heavy) and suppliers (small, joinable on
// parts.supplier = suppliers.sid).
func makeCatalog(parts, suppliers int, seed int64) testCatalog {
	rng := rand.New(rand.NewSource(seed))
	partsSchema := types.NewSchema(
		types.Field{Name: "id", Collection: "parts", Type: types.KindInt},
		types.Field{Name: "supplier", Collection: "parts", Type: types.KindInt},
		types.Field{Name: "weight", Collection: "parts", Type: types.KindFloat},
		types.Field{Name: "cat", Collection: "parts", Type: types.KindString},
	)
	prows := make([]types.Row, parts)
	for i := range prows {
		prows[i] = types.Row{
			types.Int(int64(i)),
			types.Int(int64(rng.Intn(suppliers))),
			types.Float(rng.Float64() * 100),
			types.Str(fmt.Sprintf("c%d", rng.Intn(7))),
		}
	}
	supSchema := types.NewSchema(
		types.Field{Name: "sid", Collection: "suppliers", Type: types.KindInt},
		types.Field{Name: "region", Collection: "suppliers", Type: types.KindString},
		types.Field{Name: "rating", Collection: "suppliers", Type: types.KindFloat},
	)
	srows := make([]types.Row, suppliers)
	for i := range srows {
		srows[i] = types.Row{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("r%d", rng.Intn(4))),
			types.Float(rng.Float64() * 100),
		}
	}
	return testCatalog{
		"parts":     {schema: partsSchema, rows: prows},
		"suppliers": {schema: supSchema, rows: srows},
	}
}

func ref(coll, attr string) algebra.Ref { return algebra.Ref{Collection: coll, Attr: attr} }

// testPlans builds one resolved plan per operator shape plus composite
// pipelines; returns name -> plan.
func testPlans(t *testing.T, cat testCatalog) map[string]*algebra.Node {
	t.Helper()
	parts := func() *algebra.Node { return algebra.Scan("src", "parts") }
	sups := func() *algebra.Node { return algebra.Scan("src", "suppliers") }
	weightPred := algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(40))
	joinPred := algebra.NewJoinPred(ref("parts", "supplier"), ref("suppliers", "sid"))
	residualJoin := joinPred.And(
		algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(10)))
	thetaPred := &algebra.Predicate{Conjuncts: []algebra.Comparison{{
		Left: ref("parts", "weight"), Op: stats.CmpGT,
		RightAttr: &algebra.Ref{Collection: "suppliers", Attr: "rating"},
	}}}
	plans := map[string]*algebra.Node{
		"scan":      parts(),
		"select":    algebra.Select(parts(), weightPred),
		"project":   algebra.Project(parts(), "parts.id", "cat"),
		"sort":      algebra.Sort(parts(), algebra.SortKey{Attr: ref("parts", "cat")}, algebra.SortKey{Attr: ref("parts", "weight"), Desc: true}),
		"dupelim":   algebra.DupElim(algebra.Project(parts(), "cat", "supplier")),
		"aggGroup":  algebra.Aggregate(parts(), []algebra.Ref{ref("parts", "cat")}, []algebra.AggSpec{{Func: algebra.AggCount, Star: true}, {Func: algebra.AggSum, Attr: ref("parts", "weight")}, {Func: algebra.AggMin, Attr: ref("parts", "weight")}, {Func: algebra.AggAvg, Attr: ref("parts", "weight")}}),
		"aggGlobal": algebra.Aggregate(algebra.Select(parts(), weightPred), nil, []algebra.AggSpec{{Func: algebra.AggCount, Star: true}, {Func: algebra.AggMax, Attr: ref("parts", "weight")}}),
		"hashJoin":  algebra.Join(parts(), sups(), joinPred),
		"residual":  algebra.Join(parts(), sups(), residualJoin),
		"nlj":       algebra.Join(parts(), sups(), thetaPred),
		"union":     algebra.Union(algebra.Select(parts(), weightPred), algebra.Select(parts(), algebra.NewSelPred(ref("parts", "cat"), stats.CmpEQ, types.Str("c2")))),
		"chord": algebra.Sort(
			algebra.Aggregate(
				algebra.Join(algebra.Select(parts(), algebra.NewSelPred(ref("parts", "weight"), stats.CmpGT, types.Float(5))), sups(), joinPred),
				[]algebra.Ref{ref("suppliers", "region")},
				[]algebra.AggSpec{{Func: algebra.AggCount, Star: true}, {Func: algebra.AggSum, Attr: ref("parts", "weight")}},
			),
			algebra.SortKey{Attr: algebra.Ref{Attr: "region"}},
		),
	}
	for name, p := range plans {
		if err := algebra.Resolve(p, cat); err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
	}
	return plans
}

func runPlans(t *testing.T, cat testCatalog, opts vexec.Options, check func(t *testing.T, name string, want, got []types.Row, counts vexec.Counts, plan *algebra.Node)) {
	t.Helper()
	for name, plan := range testPlans(t, cat) {
		t.Run(name, func(t *testing.T) {
			want, err := refeval.Eval(plan, cat.scanLeaf, nil)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			counts := vexec.Counts{}
			got, err := vexec.Run(plan, &vexec.Env{Opts: opts, Counts: counts, Leaf: cat.scanLeaf})
			if err != nil {
				t.Fatalf("vexec: %v", err)
			}
			check(t, name, want, got, counts, plan)
		})
	}
}

// requireBitIdentical fails unless got is exactly want (kind- and
// bit-exact, order included).
func requireBitIdentical(t *testing.T, name string, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, reference has %d", name, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%s: first divergence at row %d: got %s want %s", name, i, got[i], want[i])
			}
		}
		t.Fatalf("%s: rows differ", name)
	}
}

// TestBatchSequentialBitIdentical: no spill — the pipeline must
// reproduce the materializing reference bit for bit on every operator
// shape, across batch sizes that do and don't divide the input.
func TestBatchSequentialBitIdentical(t *testing.T) {
	cat := makeCatalog(3000, 40, 1)
	for _, bs := range []int{0, 7, 256} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			runPlans(t, cat, vexec.Options{BatchSize: bs},
				func(t *testing.T, name string, want, got []types.Row, _ vexec.Counts, _ *algebra.Node) {
					requireBitIdentical(t, name, want, got)
				})
		})
	}
}

// TestCountsMatchReference: the per-node row counts the engine's clock
// charging relies on must equal the reference operator output sizes.
func TestCountsMatchReference(t *testing.T) {
	cat := makeCatalog(2000, 30, 3)
	runPlans(t, cat, vexec.Options{},
		func(t *testing.T, name string, want, got []types.Row, counts vexec.Counts, plan *algebra.Node) {
			if out := counts.Out(plan); out != int64(len(want)) {
				t.Fatalf("%s: root count %d, reference emitted %d", name, out, len(want))
			}
			_, err := refeval.Eval(plan, cat.scanLeaf, func(n *algebra.Node, wantRows []types.Row) {
				if out := counts.Out(n); out != int64(len(wantRows)) {
					t.Errorf("%s: node %s count %d, reference %d", name, n.Kind, out, len(wantRows))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
}

// TestEmptyInputs: every operator over empty inputs — the edge the
// batch protocol (false means empty) is easiest to get wrong.
func TestEmptyInputs(t *testing.T) {
	cat := makeCatalog(0, 0, 4)
	runPlans(t, cat, vexec.Options{},
		func(t *testing.T, name string, want, got []types.Row, _ vexec.Counts, _ *algebra.Node) {
			requireBitIdentical(t, name, want, got)
		})
}

// TestHashJoinStatRecorded: the join strategy facts the engine charges
// from (hash vs nested loop) are reported faithfully.
func TestHashJoinStatRecorded(t *testing.T) {
	cat := makeCatalog(500, 10, 5)
	plans := testPlans(t, cat)
	for name, wantHash := range map[string]bool{"hashJoin": true, "residual": true, "nlj": false} {
		counts := vexec.Counts{}
		if _, err := vexec.Run(plans[name], &vexec.Env{Counts: counts, Leaf: cat.scanLeaf}); err != nil {
			t.Fatal(err)
		}
		if got := counts.Stat(plans[name]).HashJoin; got != wantHash {
			t.Errorf("%s: HashJoin stat = %v, want %v", name, got, wantHash)
		}
	}
}

// TestLeafErrorPropagates: a leaf hook failure must abort the build with
// its error, not a partial pipeline.
func TestLeafErrorPropagates(t *testing.T) {
	cat := makeCatalog(100, 5, 6)
	plan := testPlans(t, cat)["chord"]
	boom := fmt.Errorf("store exploded")
	_, err := vexec.Run(plan, &vexec.Env{Leaf: func(n *algebra.Node) ([]types.Row, bool, error) {
		if n.Kind == algebra.OpScan && n.Collection == "suppliers" {
			return nil, false, boom
		}
		return cat.scanLeaf(n)
	}})
	if err == nil || err.Error() != boom.Error() {
		t.Fatalf("error = %v, want %v", err, boom)
	}
}
