package types

import (
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Collection: "Employee", Type: KindInt},
		Field{Name: "name", Collection: "Employee", Type: KindString},
		Field{Name: "salary", Collection: "Employee", Type: KindInt},
	)
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, name := range []string{"id", "Employee.id", "ID", "employee.ID"} {
		if i, ok := s.Lookup(name); !ok || i != 0 {
			t.Errorf("Lookup(%q) = %d, %v", name, i, ok)
		}
	}
	if _, ok := s.Lookup("bogus"); ok {
		t.Error("Lookup(bogus) should miss")
	}

	// A bare field named "A.x" and a qualified A.x hold the same key; the
	// later field wins it, in either order, whatever the case.
	bareFirst := NewSchema(Field{Name: "A.x", Type: KindInt}, Field{Name: "x", Collection: "A", Type: KindInt})
	qualFirst := NewSchema(Field{Name: "x", Collection: "A", Type: KindInt}, Field{Name: "A.x", Type: KindInt})
	for _, c := range []struct {
		s    *Schema
		name string
		want int
	}{
		{bareFirst, "A.x", 1}, {bareFirst, "a.X", 1}, {bareFirst, "x", 1},
		{qualFirst, "A.x", 1}, {qualFirst, "a.X", 1}, {qualFirst, "X", 0},
		{s, "EMPLOYEE.SALARY", 2}, {s, "Name", 1},
	} {
		if i, ok := c.s.Lookup(c.name); !ok || i != c.want {
			t.Errorf("Lookup(%q) in %s = %d, %v; want %d", c.name, c.s, i, ok, c.want)
		}
	}
	// Qualified misses: another collection, a partial name, a bare dot.
	for _, name := range []string{"Dept.salary", "Employee.sal", "Employee.", ".salary", "Employee_salary", "x.A"} {
		if i, ok := s.Lookup(name); ok {
			t.Errorf("Lookup(%q) = %d, want a miss", name, i)
		}
	}
}

func TestSchemaConcat(t *testing.T) {
	s := testSchema()
	other := NewSchema(Field{Name: "title", Collection: "Book", Type: KindString})
	cat := s.Concat(other)
	if cat.Len() != 4 {
		t.Errorf("Concat len = %d", cat.Len())
	}
	if i, ok := cat.Lookup("Book.title"); !ok || i != 3 {
		t.Errorf("Concat lookup title = %d, %v", i, ok)
	}
	// A name both sides hold resolves to the right side's field bare and
	// to each side's field qualified.
	dup := s.Concat(NewSchema(Field{Name: "ID", Collection: "Book", Type: KindInt}))
	for name, want := range map[string]int{"id": 3, "employee.id": 0, "BOOK.id": 3, "Employee.ID": 0} {
		if i, ok := dup.Lookup(name); !ok || i != want {
			t.Errorf("Concat lookup %q = %d, %v; want %d", name, i, ok, want)
		}
	}
	if _, ok := dup.Lookup("Book.name"); ok {
		t.Error("Concat lookup Book.name should miss")
	}
}

func TestSchemaShadowing(t *testing.T) {
	s := NewSchema(
		Field{Name: "id", Collection: "A", Type: KindInt},
		Field{Name: "id", Collection: "B", Type: KindInt},
	)
	// Unqualified lookup resolves to the later duplicate; qualified stays
	// unambiguous.
	if i, _ := s.Lookup("id"); i != 1 {
		t.Errorf("unqualified id = %d, want 1", i)
	}
	if i, _ := s.Lookup("A.id"); i != 0 {
		t.Errorf("A.id = %d, want 0", i)
	}
	if i, _ := s.Lookup("B.id"); i != 1 {
		t.Errorf("B.id = %d, want 1", i)
	}
}

func TestRowOps(t *testing.T) {
	r := Row{Int(1), Str("ana")}
	j := r.Concat(Row{Bool(true)})
	if len(j) != 3 || !j[2].AsBool() {
		t.Errorf("Concat = %v", j)
	}
	if !r.Equal(Row{Int(1), Str("ana")}) {
		t.Error("Equal should hold")
	}
	if r.Equal(Row{Int(1)}) {
		t.Error("different lengths should differ")
	}
	if r.String() != `[1, "ana"]` {
		t.Errorf("String = %s", r.String())
	}
}

// Property: Row.Key is injective over small integer rows (distinct rows
// yield distinct keys) and Equal rows yield equal keys.
func TestRowKeyProperties(t *testing.T) {
	f := func(a, b int16, s1, s2 string) bool {
		r1 := Row{Int(int64(a)), Str(s1)}
		r2 := Row{Int(int64(b)), Str(s2)}
		if r1.Equal(r2) != (r1.Key() == r2.Key()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyKindDisambiguation(t *testing.T) {
	// Int(1) and Str("1") must not collide even though both render "1"-ish.
	if (Row{Int(1)}).Key() == (Row{Str("1")}).Key() {
		t.Error("keys of different kinds should differ")
	}
	// Two fields "a","b" vs one field "a\x00b" handled by separator+kind.
	if (Row{Str("a"), Str("b")}).Key() == (Row{Str("a\x00b")}).Key() {
		t.Error("field boundaries should be preserved in keys")
	}
}

func TestRowBytes(t *testing.T) {
	rows := []Row{
		{Int(1), Str("abc")},
		{Int(2), Str("")},
	}
	// 8 + (3+8) + 8 + (0+8) = 35.
	if got := RowBytes(rows); got != 35 {
		t.Errorf("RowBytes = %d, want 35", got)
	}
	if RowBytes(nil) != 0 {
		t.Error("empty row set should be 0 bytes")
	}
}
