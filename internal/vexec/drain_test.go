package vexec_test

import (
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/refeval"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// Integers past 2^53 are distinct values even though float64 rounds them
// together: a filter keeps exactly the matching one.
func TestFilterExactPast2p53(t *testing.T) {
	const p53 = 1 << 53
	cat := intTables([]types.Row{{types.Int(p53)}, {types.Int(p53 + 1)}}, nil, types.KindInt)
	plan := algebra.Select(algebra.Scan("src", "L"),
		algebra.NewSelPred(algebra.Ref{Attr: "x"}, stats.CmpEQ, types.Int(9007199254740993)))
	got, _ := evalBoth(t, cat, plan)
	if len(got) != 1 || got[0][0].AsInt() != p53+1 {
		t.Errorf("x = 9007199254740993 kept %v", got)
	}
}

// The same equi-join as a hash join and as a nested-loop join (the
// equality spelled x >= y AND x <= y, which has no equi conjunct) yields
// one multiset, and the right one: ints past 2^53 match only themselves
// (and the float of equal value), and 0 matches -0.
func TestHashAndNestedLoopJoinAgree(t *testing.T) {
	const p53 = 1 << 53
	l := []types.Row{{types.Int(p53)}, {types.Int(p53 + 1)}, {types.Int(0)}, {types.Int(3)}}
	r := []types.Row{{types.Float(p53)}, {types.Float(p53 + 2)}, {types.Float(math.Copysign(0, -1))},
		{types.Float(3)}, {types.Float(3)}}
	cat := intTables(l, r, types.KindFloat)
	x, y := algebra.Ref{Attr: "x"}, algebra.Ref{Attr: "y"}
	hashRows, hashed := joinBoth(t, cat, "L", "R", algebra.NewJoinPred(x, y))
	nljRows, nljHashed := joinBoth(t, cat, "L", "R", &algebra.Predicate{Conjuncts: []algebra.Comparison{
		{Left: x, Op: stats.CmpGE, RightAttr: &y}, {Left: x, Op: stats.CmpLE, RightAttr: &y}}})
	if !hashed || nljHashed {
		t.Fatalf("strategies: equi hashed %v, range pair hashed %v", hashed, nljHashed)
	}
	// 2^53 ⋈ 2^53, 0 ⋈ -0, and 3 ⋈ each of the two 3s.
	if len(hashRows) != 4 {
		t.Errorf("hash join = %v, want 4 pairs", hashRows)
	}
	requireSameBag(t, hashRows, nljRows)
}

// requireSameBag compares two answers as multisets of rendered rows.
func requireSameBag(t *testing.T, want, got []types.Row) {
	t.Helper()
	bag := map[string]int{}
	for _, r := range want {
		bag[r.Key()]++
	}
	for _, r := range got {
		bag[r.Key()]--
	}
	for k, n := range bag {
		if n != 0 {
			t.Errorf("row %s: multiplicity differs by %d (%d rows vs %d)", k, n, len(want), len(got))
		}
	}
}

// execModes are the executor configurations every operator runs in.
func execModes(t *testing.T) map[string]vexec.Options {
	return map[string]vexec.Options{
		"in-memory": {},
		"spill":     {MemBytes: 4096, SpillDir: t.TempDir()},
	}
}

// Scans hand the pipeline a store's own rows (a relational table's and an
// object collection's alike), so no operator may write into them: every
// operator kind, in memory and spilling, leaves each store deep-equal to
// a snapshot taken first. That includes a hash join whose build side is
// the bare scan of an extent with spare capacity, which the in-memory
// join takes uncopied.
func TestOperatorsLeaveStoreRowsUntouched(t *testing.T) {
	cat := makeCatalog(3000, 40, 8) // 3000 appends leave spare capacity
	rel := relstore.Open(relstore.DefaultConfig())
	obj := objstore.Open(objstore.DefaultConfig())
	readAll := map[string]map[string]func(*netsim.Meter) []types.Row{"relstore": {}, "objstore": {}}
	for name, tbl := range cat {
		tb, err := rel.CreateTable(name, tbl.schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		coll, err := obj.CreateCollection(name, tbl.schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.rows {
			if err := tb.Insert(append(types.Row(nil), r...)); err != nil {
				t.Fatal(err)
			}
			if err := coll.Insert(append(types.Row(nil), r...)); err != nil {
				t.Fatal(err)
			}
		}
		readAll["relstore"][name] = tb.ReadAll
		readAll["objstore"][name] = coll.ReadAll
	}
	snapshot := map[string]map[string][]types.Row{}
	for store, tables := range readAll {
		snapshot[store] = map[string][]types.Row{}
		for name, read := range tables {
			for _, r := range read(new(netsim.Meter)) {
				snapshot[store][name] = append(snapshot[store][name], append(types.Row(nil), r...))
			}
		}
	}
	plans := testPlans(t, cat)
	buildParts := algebra.Join(algebra.Scan("src", "suppliers"), algebra.Scan("src", "parts"),
		algebra.NewJoinPred(ref("suppliers", "sid"), ref("parts", "supplier")))
	if err := algebra.Resolve(buildParts, cat); err != nil {
		t.Fatal(err)
	}
	plans["hashJoinBuildParts"] = buildParts
	for store, tables := range readAll {
		leaf := func(n *algebra.Node) ([]types.Row, bool, error) {
			if n.Kind != algebra.OpScan {
				return nil, false, nil
			}
			return tables[n.Collection](new(netsim.Meter)), true, nil
		}
		for mode, opts := range execModes(t) {
			for name, plan := range plans {
				want, err := refeval.Eval(plan, cat.scanLeaf, nil)
				if err != nil {
					t.Fatal(err)
				}
				counts := vexec.Counts{}
				got, err := vexec.Run(plan, &vexec.Env{Opts: opts, Counts: counts, Leaf: leaf})
				if err != nil {
					t.Fatalf("%s %s %s: %v", store, mode, name, err)
				}
				if len(got) != len(want) {
					t.Errorf("%s %s %s: %d rows, reference %d", store, mode, name, len(got), len(want))
				}
				if name == "hashJoinBuildParts" {
					requireSameBag(t, want, got)
					if spilled := counts.Stat(plan).Spilled; spilled != (opts.MemBytes > 0) {
						t.Errorf("%s %s %s: spilled = %v", store, mode, name, spilled)
					}
				}
			}
		}
		for name, read := range tables {
			if !reflect.DeepEqual(read(new(netsim.Meter)), snapshot[store][name]) {
				t.Errorf("%s %s changed under execution", store, name)
			}
		}
	}
}

// pullAll drains a pipeline batch by batch — the path Drain skips when it
// takes a root's slice — copying each batch out.
func pullAll(t *testing.T, op vexec.Op) []types.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	b := &vexec.Batch{}
	for {
		ok, err := op.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, b.Rows...)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Drain's hand-over of a root's slice reports the same rows and the same
// per-node stats as pulling the root's batches, for every root kind in
// every executor mode, and pins the answer's capacity to its length so a
// caller's append never writes into the operator's or the store's slice.
func TestDrainCountsMatchBatchPath(t *testing.T) {
	cat := makeCatalog(2500, 30, 9)
	for mode, opts := range execModes(t) {
		for name, plan := range testPlans(t, cat) {
			drained, batched := vexec.Counts{}, vexec.Counts{}
			got, err := vexec.Run(plan, &vexec.Env{Opts: opts, Counts: drained, Leaf: cat.scanLeaf})
			if err != nil {
				t.Fatal(err)
			}
			op, err := vexec.Build(plan, &vexec.Env{Opts: opts, Counts: batched, Leaf: cat.scanLeaf})
			if err != nil {
				t.Fatal(err)
			}
			want := pullAll(t, op)
			if cap(got) != len(got) {
				t.Errorf("%s %s: answer has capacity %d past its %d rows", mode, name, cap(got), len(got))
			}
			if opts.MemBytes > 0 {
				requireSameBag(t, want, got)
			} else {
				requireBitIdentical(t, mode+" "+name, want, got)
			}
			plan.Walk(func(n *algebra.Node) bool {
				if d, b := drained.Stat(n), batched.Stat(n); *d != *b {
					t.Errorf("%s %s: node %s stats %+v by Drain, %+v by batches", mode, name, n.Kind, *d, *b)
				}
				return true
			})
		}
	}
}

// Drain's allocation gates, measured against Discard (the same pipeline
// pulled without keeping its output): a sort or aggregate root's answer
// is the operator's own slice, so Drain adds nothing; a pipelined root's
// answer is allocated once, at its exact size. The collector is off
// while measuring: a collection empties the batch and chunk pools, and
// refilling them would be counted against whichever run it fell in.
func TestDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cat := makeCatalog(3000, 50, 10)
	plans := testPlans(t, cat)
	for name, extra := range map[string]float64{"sort": 0, "aggGroup": 0, "select": 1, "project": 1} {
		t.Run(name, func(t *testing.T) {
			allocs := func(drain bool) float64 {
				return testing.AllocsPerRun(20, func() {
					op, err := vexec.Build(plans[name], &vexec.Env{Leaf: cat.scanLeaf})
					if err != nil {
						t.Fatal(err)
					}
					if drain {
						_, err = vexec.Drain(op, vexec.DefaultBatchSize)
					} else {
						err = vexec.Discard(op, vexec.DefaultBatchSize)
					}
					if err != nil {
						t.Fatal(err)
					}
				})
			}
			drain, discard := allocs(true), allocs(false)
			if got := math.Round(drain - discard); got != extra {
				t.Errorf("Drain allocates %.1f beyond Discard's %.1f, want %v", drain-discard, discard, extra)
			}
		})
	}
}

// Drain copies a long pipelined answer exactly once into an exact-size
// slice, in emission order, however many collector chunks it spans.
func TestDrainCollectsAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 20_000} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.Int(int64(i))}
		}
		// A union is pipelined: its batches stream, no slice to take.
		half := n / 2
		got, err := vexec.Drain(vexec.NewUnionAll(
			vexec.NewSliceSource(rows[:half], 7), vexec.NewSliceSource(rows[half:], 1000)), 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || cap(got) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(got), cap(got))
		}
		for i := range got {
			if &got[i][0] != &rows[i][0] {
				t.Fatalf("n=%d: row %d out of order", n, i)
			}
		}
	}
}
