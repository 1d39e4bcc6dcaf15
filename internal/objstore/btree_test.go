package objstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"disco/internal/stats"
	"disco/internal/types"
)

func TestBTreeInsertAndScan(t *testing.T) {
	tree := NewBTree()
	rng := rand.New(rand.NewSource(1))
	n := 5000
	perm := rng.Perm(n)
	for _, k := range perm {
		tree.Insert(types.Int(int64(k)), RID{Page: int32(k / 70), Slot: int32(k % 70)})
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d, want %d", tree.Len(), n)
	}
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	if _, split := tree.root.(*btinner); !split {
		t.Errorf("tree of %d keys should have split", n)
	}
	// Full scan yields sorted order 0..n-1.
	it := tree.ScanAll()
	for want := 0; want < n; want++ {
		e, ok := it.Next()
		if !ok {
			t.Fatalf("iterator ended early at %d", want)
		}
		if e.Key.AsInt() != int64(want) {
			t.Fatalf("key = %d, want %d", e.Key.AsInt(), want)
		}
	}
	if _, ok := it.Next(); ok {
		t.Error("iterator should be exhausted")
	}
}

func TestBTreeDuplicates(t *testing.T) {
	tree := NewBTree()
	for i := 0; i < 10; i++ {
		tree.Insert(types.Int(7), RID{Slot: int32(i)})
	}
	tree.Insert(types.Int(3), RID{})
	tree.Insert(types.Int(9), RID{})
	it := tree.Seek(stats.CmpEQ, types.Int(7))
	count := 0
	seen := map[int32]bool{}
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Key.AsInt() != 7 {
			t.Fatalf("eq scan returned key %v", e.Key)
		}
		seen[e.RID.Slot] = true
		count++
	}
	if count != 10 || len(seen) != 10 {
		t.Errorf("eq scan over duplicates = %d entries (%d distinct rids)", count, len(seen))
	}
}

func rangeCount(t *testing.T, tree *BTree, op stats.CmpOp, v int64) int {
	t.Helper()
	it := tree.Seek(op, types.Int(v))
	n := 0
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if !op.Eval(e.Key, types.Int(v)) {
			t.Fatalf("entry %v violates %v %v", e.Key, op, v)
		}
		n++
	}
	return n
}

func TestBTreeRangeOps(t *testing.T) {
	tree := NewBTree()
	for i := int64(0); i < 1000; i++ {
		tree.Insert(types.Int(i), RID{})
	}
	cases := []struct {
		op   stats.CmpOp
		v    int64
		want int
	}{
		{stats.CmpEQ, 500, 1},
		{stats.CmpEQ, 5000, 0},
		{stats.CmpLT, 250, 250},
		{stats.CmpLE, 250, 251},
		{stats.CmpGT, 250, 749},
		{stats.CmpGE, 250, 750},
		{stats.CmpLT, 0, 0},
		{stats.CmpGE, 0, 1000},
		{stats.CmpNE, 500, 999},
	}
	for _, c := range cases {
		if got := rangeCount(t, tree, c.op, c.v); got != c.want {
			t.Errorf("count(%v %d) = %d, want %d", c.op, c.v, got, c.want)
		}
	}
}

// Property: for random key sets and probes, range counts agree with a
// naive filter.
func TestBTreeMatchesNaive(t *testing.T) {
	f := func(keysRaw []uint16, probe uint16, opRaw uint8) bool {
		if len(keysRaw) == 0 {
			return true
		}
		ops := []stats.CmpOp{stats.CmpEQ, stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE, stats.CmpNE}
		op := ops[int(opRaw)%len(ops)]
		tree := NewBTree()
		for i, k := range keysRaw {
			tree.Insert(types.Int(int64(k%200)), RID{Slot: int32(i)})
		}
		v := types.Int(int64(probe % 200))
		want := 0
		for _, k := range keysRaw {
			if op.Eval(types.Int(int64(k%200)), v) {
				want++
			}
		}
		it := tree.Seek(op, v)
		got := 0
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			got++
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBTreeStrings(t *testing.T) {
	tree := NewBTree()
	names := []string{"Valduriez", "Adiba", "Gardarin", "Naacke", "Tomasic"}
	for i, n := range names {
		tree.Insert(types.Str(n), RID{Slot: int32(i)})
	}
	it := tree.ScanAll()
	var got []string
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, e.Key.AsString())
	}
	want := []string{"Adiba", "Gardarin", "Naacke", "Tomasic", "Valduriez"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted strings = %v", got)
		}
	}
	if n := rangeCount(t, tree, stats.CmpLT, 0); n != 0 {
		_ = n // mixed-kind probes are ordered by kind tag; just ensure no panic
	}
}

func TestTreeIterSteps(t *testing.T) {
	tree := NewBTree()
	for i := int64(0); i < 100; i++ {
		tree.Insert(types.Int(i), RID{})
	}
	it := tree.Seek(stats.CmpLT, types.Int(10))
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Steps != 10 {
		t.Errorf("Steps = %d, want 10", it.Steps)
	}
}
