package vexec

import (
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

func schemaAB() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "a", Collection: "T", Type: types.KindInt},
		types.Field{Name: "b", Collection: "T", Type: types.KindString},
	)
}

// TestCompileComparator pins the precompiled comparator's contract:
// position-resolved keys, direction flips, and tie fall-through.
func TestCompileComparator(t *testing.T) {
	s := schemaAB()
	cmp, err := compileComparator(s, []algebra.SortKey{
		{Attr: algebra.Ref{Attr: "b"}},
		{Attr: algebra.Ref{Attr: "a"}, Desc: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{
		{types.Int(3), types.Str("x")},
		{types.Int(1), types.Str("y")},
		{types.Int(2), types.Str("x")},
		{types.Int(1), types.Str("y")},
	}
	if c := cmp.Compare(rows[0], rows[1]); c >= 0 { // "x" < "y"
		t.Errorf("Compare = %d, want < 0", c)
	}
	if c := cmp.Compare(rows[0], rows[2]); c >= 0 { // tie on "x", 3 > 2 desc
		t.Error("desc tiebreak: want row{3,x} before row{2,x}")
	}
	if c := cmp.Compare(rows[1], rows[3]); c != 0 {
		t.Errorf("equal rows Compare = %d, want 0", c)
	}
	if _, err := compileComparator(s, []algebra.SortKey{{Attr: algebra.Ref{Attr: "zz"}}}); err == nil {
		t.Error("unknown key should fail to compile")
	}
}

// TestProjectQualifiedRefs: projection columns resolve like sort keys do
// — the qualified rel.col form first, then the bare attribute — so a
// join output with the same attribute name in two collections projects
// unambiguously.
func TestProjectQualifiedRefs(t *testing.T) {
	s := types.NewSchema(
		types.Field{Name: "id", Collection: "Emp", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Emp", Type: types.KindString},
		types.Field{Name: "id", Collection: "Dept", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Dept", Type: types.KindString},
	)
	idx, err := projectIndex(s, []string{"Dept.name", "Emp.id"})
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 3 || idx[1] != 0 {
		t.Errorf("qualified projection = %v, want [3 0]", idx)
	}
	// A bare name held by two collections is ambiguous, and a qualifier
	// never falls back to another collection's field of that name.
	for _, col := range []string{"name", "Nowhere.name", "Nowhere.bogus", "zzz"} {
		if _, err := projectIndex(s, []string{col}); err == nil {
			t.Errorf("unknown column %q should fail", col)
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	s := schemaAB()
	if _, err := newFoldState(s, []algebra.Ref{{Attr: "zzz"}}, nil); err == nil {
		t.Error("unknown group-by should fail")
	}
	if _, err := newFoldState(s, nil,
		[]algebra.AggSpec{{Func: algebra.AggSum, Attr: algebra.Ref{Attr: "zzz"}}}); err == nil {
		t.Error("unknown aggregate attr should fail")
	}
}
