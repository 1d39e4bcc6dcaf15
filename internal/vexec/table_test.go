package vexec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"disco/internal/algebra"
	"disco/internal/refeval"
	"disco/internal/types"
)

// The breaker tables against the reference evaluator on adversarial keys:
// more distinct keys than 2^16, keys forced into one join chain or one
// open-addressing run, duplicate build keys whose order the probe must
// keep, values that are equal but not identical (Int(3)/Float(3), 0/-0),
// NaN, strings that share a prefix or embed a zero byte, empty input and
// a single group. In memory every answer is bit-identical to refeval's,
// in order; spilling, it is the same multiset.

// keyTables is a probe table P(k, w) and a main table L(k, v): the hash
// join builds on L and probes with P; grouping, dup-elim and sorts run
// over L.
func keyTables(l, p []types.Row) spillTables {
	schema := func(coll, payload string) *types.Schema {
		return types.NewSchema(
			types.Field{Name: "k", Collection: coll, Type: types.KindFloat},
			types.Field{Name: payload, Collection: coll, Type: types.KindFloat},
		)
	}
	return spillTables{
		"L": {schema: schema("L", "v"), rows: l},
		"P": {schema: schema("P", "w"), rows: p},
	}
}

// keyRows pairs each key with a payload counting up from base, so rows
// sharing a key stay distinguishable and their order visible.
func keyRows(keys []types.Constant, base int) []types.Row {
	rows := make([]types.Row, len(keys))
	for i, k := range keys {
		rows[i] = types.Row{k, types.Float(float64(base + i))}
	}
	return rows
}

func ints(vals ...int64) []types.Constant {
	out := make([]types.Constant, len(vals))
	for i, v := range vals {
		out[i] = types.Int(v)
	}
	return out
}

// keyPlans are the breaker plans every key set runs through.
func keyPlans(t *testing.T, cat spillTables) map[string]*algebra.Node {
	t.Helper()
	lk, lv := algebra.Ref{Collection: "L", Attr: "k"}, algebra.Ref{Collection: "L", Attr: "v"}
	scanL := func() *algebra.Node { return algebra.Scan("src", "L") }
	plans := map[string]*algebra.Node{
		"join": algebra.Join(algebra.Scan("src", "P"), scanL(),
			algebra.NewJoinPred(algebra.Ref{Collection: "P", Attr: "k"}, lk)),
		"group": algebra.Aggregate(scanL(), []algebra.Ref{lk}, []algebra.AggSpec{
			{Func: algebra.AggCount, Star: true},
			{Func: algebra.AggSum, Attr: lv},
			{Func: algebra.AggMin, Attr: lv},
			{Func: algebra.AggMax, Attr: lv},
			{Func: algebra.AggAvg, Attr: lv},
		}),
		"dupelimRows": algebra.DupElim(scanL()),
		"dupelimKeys": algebra.DupElim(algebra.Project(scanL(), "k")),
		"sortAsc":     algebra.Sort(scanL(), algebra.SortKey{Attr: lk}),
		"sortDesc":    algebra.Sort(scanL(), algebra.SortKey{Attr: lk, Desc: true}),
		"sortMulti":   algebra.Sort(scanL(), algebra.SortKey{Attr: lk, Desc: true}, algebra.SortKey{Attr: lv}),
		"sortPayload": algebra.Sort(algebra.Project(scanL(), "v", "k"), algebra.SortKey{Attr: lv}, algebra.SortKey{Attr: lk, Desc: true}),
	}
	for name, p := range plans {
		if err := algebra.Resolve(p, cat); err != nil {
			t.Fatalf("resolve %s: %v", name, err)
		}
	}
	return plans
}

// rowBytes renders a row bit-exactly (kind tags, float bits, strings).
func rowBytes(r types.Row) []byte {
	return types.AppendValues(nil, r)
}

func requireSameRowsInOrder(t *testing.T, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d rows, reference %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(rowBytes(want[i]), rowBytes(got[i])) {
			t.Fatalf("row %d = %v, reference %v", i, got[i], want[i])
		}
	}
}

// sameJoinBucket returns n distinct ints whose join-key hashes share the
// head slot of a table over rows build rows: one chain holds them all.
func sameJoinBucket(n, rows int) []int64 {
	t := joinTable{shift: 64 - tableBits(rows)}
	var out []int64
	for v := int64(0); len(out) < n; v++ {
		if t.bucket(joinKeyHash(types.Int(v))) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// sameKeyRun returns n distinct ints whose one-value key hashes share
// their top 12 bits: up to 4096 slots they all probe from one slot.
func sameKeyRun(n int) []int64 {
	var out []int64
	for v := int64(0); len(out) < n; v++ {
		if rowKeyHash(types.Row{types.Int(v)}, []int{0})>>52 == 0 {
			out = append(out, v)
		}
	}
	return out
}

// keySets builds the adversarial inputs, name -> (L, P).
func keySets() map[string][2][]types.Row {
	rng := rand.New(rand.NewSource(5))
	sets := map[string][2][]types.Row{}

	// More distinct keys than 2^16, shuffled; a few probes, some absent.
	const wide = 1<<16 + 4000
	perm := rng.Perm(wide)
	wideKeys := make([]types.Constant, wide)
	for i, v := range perm {
		wideKeys[i] = types.Int(int64(v) * 3)
	}
	sets["wide"] = [2][]types.Row{keyRows(wideKeys, 0),
		keyRows(ints(0, 3, 4, 300, 196605, 196608, -3, 9, 9), 0)}

	// Every build row in one join chain, each key three times over.
	chain := sameJoinBucket(150, 450)
	var chainKeys []types.Constant
	for rep := 0; rep < 3; rep++ {
		for _, i := range rng.Perm(len(chain)) {
			chainKeys = append(chainKeys, types.Int(chain[i]))
		}
	}
	sets["oneChain"] = [2][]types.Row{keyRows(chainKeys, 0), keyRows(ints(chain[:40]...), 1000)}

	// Every key in one open-addressing run, each key twice.
	run := sameKeyRun(300)
	var runKeys []types.Constant
	for rep := 0; rep < 2; rep++ {
		for _, i := range rng.Perm(len(run)) {
			runKeys = append(runKeys, types.Int(run[i]))
		}
	}
	sets["oneRun"] = [2][]types.Row{keyRows(runKeys, 0), keyRows(ints(run[:30]...), 1000)}

	// Duplicate build keys: the probe sees each key's rows in build order.
	var dupKeys []types.Constant
	for i := 0; i < 200; i++ {
		dupKeys = append(dupKeys, types.Int(int64(rng.Intn(6))))
	}
	sets["buildDups"] = [2][]types.Row{keyRows(dupKeys, 0), keyRows(ints(5, 0, 1, 1, 2, 3, 4, 7), 1000)}

	// Equal but not identical values, NaN, null, bools and strings.
	const p53 = 1 << 53
	mixed := []types.Constant{
		types.Int(3), types.Float(3), types.Int(0), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Null, types.Bool(true), types.Bool(false),
		types.Int(p53), types.Int(p53 + 1), types.Float(p53),
		types.Str(""), types.Str("a"), types.Str("a\x00"), types.Str("a\x00b"), types.Str("\x00"),
	}
	var mixedKeys []types.Constant
	for rep := 0; rep < 4; rep++ {
		for _, i := range rng.Perm(len(mixed)) {
			mixedKeys = append(mixedKeys, mixed[i])
		}
	}
	sets["mixed"] = [2][]types.Row{keyRows(mixedKeys, 0), keyRows(mixed, 1000)}

	// Floats without NaN, -0 and 0 among them: the generic sort path.
	var floatKeys []types.Constant
	for i := 0; i < 500; i++ {
		f := float64(rng.Intn(40)-20) / 4
		if f == 0 && rng.Intn(2) == 0 {
			f = math.Copysign(0, -1)
		}
		floatKeys = append(floatKeys, types.Float(f))
	}
	sets["floats"] = [2][]types.Row{keyRows(floatKeys, 0), keyRows(floatKeys[:50], 1000)}

	// Strings sharing a long prefix, some with an embedded zero byte.
	var strKeys []types.Constant
	prefix := "shared-prefix-shared-prefix-shared-prefix-"
	for i := 0; i < 600; i++ {
		s := fmt.Sprintf("%s%d", prefix, rng.Intn(150))
		if i%3 == 0 {
			s = prefix + "\x00" + s[len(prefix):]
		}
		strKeys = append(strKeys, types.Str(s))
	}
	sets["strings"] = [2][]types.Row{keyRows(strKeys, 0), keyRows(strKeys[:60], 1000)}

	sets["empty"] = [2][]types.Row{nil, nil}
	sets["emptyProbe"] = [2][]types.Row{keyRows(ints(1, 2, 2), 0), nil}
	sets["oneGroup"] = [2][]types.Row{keyRows(ints(7, 7, 7, 7, 7, 7, 7), 0), keyRows(ints(7, 8), 1000)}
	return sets
}

func TestBreakerTablesMatchReference(t *testing.T) {
	for name, set := range keySets() {
		cat := keyTables(set[0], set[1])
		for plan, p := range keyPlans(t, cat) {
			want, err := refeval.Eval(p, cat.scanLeaf, nil)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", name, plan, err)
			}
			t.Run(name+"/"+plan+"/in-memory", func(t *testing.T) {
				got, spilled := runPlanOpts(t, p, cat, Options{})
				if spilled {
					t.Fatal("unbudgeted run spilled")
				}
				requireSameRowsInOrder(t, want, got)
			})
			if p.Kind != algebra.OpJoin && p.Kind != algebra.OpAggregate {
				continue
			}
			t.Run(name+"/"+plan+"/spill", func(t *testing.T) {
				// An eighth of the input: a level or two of partitions.
				budget := max(1024, types.RowBytes(set[0])/8)
				got, spilled := runPlanOpts(t, p, cat, Options{MemBytes: budget, SpillDir: t.TempDir()})
				if !spilled && types.RowBytes(set[0]) > budget {
					t.Fatal("budgeted run did not spill")
				}
				requireSameMultiset(t, want, got)
			})
		}
	}
}

// The forced collisions above really collide: the chain set puts every
// build row behind one head slot, and the run set's keys all start their
// probe at one slot.
func TestAdversarialKeysCollide(t *testing.T) {
	l := keySets()["oneChain"][0]
	jt := newJoinTable(l, 0)
	n := 0
	for e := jt.head[0]; e != 0; e = jt.links[e-1].next {
		n++
	}
	if n != len(l) {
		t.Errorf("head slot 0 chains %d of %d build rows", n, len(l))
	}
	var kt keyTable
	defer kt.release(false)
	rows := keySets()["oneRun"][0]
	for _, r := range rows {
		h := rowKeyHash(r, []int{0})
		if id, slot := kt.find(r, []int{0}, h); id < 0 {
			kt.add(slot, h, r)
		}
	}
	start := map[uint32]bool{}
	for _, r := range rows {
		start[uint32(rowKeyHash(r, []int{0})>>32)>>kt.shift] = true
	}
	if kt.len() != 300 || len(start) != 1 {
		t.Errorf("%d keys from %d start slots, want 300 from 1", kt.len(), len(start))
	}
}

// An empty or nil position list is the zero-length key: every row,
// whatever its width, is the one key an ungrouped aggregate folds into.
func TestEmptyKeyIsOneKey(t *testing.T) {
	for _, pos := range [][]int{nil, {}} {
		var kt keyTable
		for _, r := range []types.Row{{types.Int(1)}, {types.Int(2), types.Str("a")}, {}} {
			h := rowKeyHash(r, pos)
			if id, slot := kt.find(r, pos, h); id < 0 {
				kt.add(slot, h, types.Row{types.Null})
			}
		}
		if kt.len() != 1 {
			t.Errorf("pos %#v: %d keys, want 1", pos, kt.len())
		}
		kt.release(false)
	}
}
