package algebra

import (
	"testing"

	"disco/internal/stats"
	"disco/internal/types"
)

// sigPlans builds a family of small plans that differ pairwise in exactly
// one structural aspect, so signature uniqueness is exercised field by
// field.
func sigPlans() map[string]*Node {
	scan := func() *Node { return Scan("w1", "Emp") }
	join := func(p *Predicate) *Node { return Join(Scan("w1", "Emp"), Scan("w2", "Dept"), p) }
	eq := NewJoinPred(Ref{Collection: "Emp", Attr: "dept"}, Ref{Collection: "Dept", Attr: "dno"})
	return map[string]*Node{
		"scan":          scan(),
		"scanOtherColl": Scan("w1", "Emp2"),
		"scanOtherWrap": Scan("w2", "Emp"),
		"select":        Select(scan(), NewSelPred(Ref{Collection: "Emp", Attr: "id"}, stats.CmpLT, types.Int(7))),
		"selectOtherOp": Select(scan(), NewSelPred(Ref{Collection: "Emp", Attr: "id"}, stats.CmpLE, types.Int(7))),
		"selectOtherVal": Select(scan(),
			NewSelPred(Ref{Collection: "Emp", Attr: "id"}, stats.CmpLT, types.Int(8))),
		"selectStrVal": Select(scan(),
			NewSelPred(Ref{Collection: "Emp", Attr: "id"}, stats.CmpLT, types.Str("7"))),
		"project":      Project(scan(), "Emp.id"),
		"projectOther": Project(scan(), "Emp.name"),
		"sortAsc":      Sort(scan(), SortKey{Attr: Ref{Collection: "Emp", Attr: "id"}}),
		"sortDesc":     Sort(scan(), SortKey{Attr: Ref{Collection: "Emp", Attr: "id"}, Desc: true}),
		"join":         join(eq),
		"joinCross":    join(nil),
		"joinFlipped":  Join(Scan("w2", "Dept"), Scan("w1", "Emp"), eq),
		"union":        Union(Scan("w1", "Emp"), Scan("w2", "Dept")),
		"dupelim":      DupElim(scan()),
		"aggregate":    Aggregate(scan(), []Ref{{Collection: "Emp", Attr: "dept"}}, []AggSpec{{Func: AggCount, Star: true, As: "n"}}),
		"aggregateSum": Aggregate(scan(), []Ref{{Collection: "Emp", Attr: "dept"}}, []AggSpec{{Func: AggSum, Attr: Ref{Collection: "Emp", Attr: "salary"}, As: "n"}}),
		"submit":       Submit(scan(), "w1"),
		"submitOther":  Submit(scan(), "w2"),
	}
}

func TestSignatureMatchesEqual(t *testing.T) {
	plans := sigPlans()
	for na, a := range plans {
		for nb, b := range plans {
			wantEq := a.Equal(b)
			gotEq := a.Signature() == b.Signature()
			if wantEq != gotEq {
				t.Errorf("%s vs %s: Equal=%v but signature match=%v\nsigA=%s\nsigB=%s",
					na, nb, wantEq, gotEq, a.Signature(), b.Signature())
			}
		}
	}
}

func TestSignatureCaseFolding(t *testing.T) {
	// Equal folds case on refs and projection columns but not on
	// collection/wrapper names; the signature must agree exactly.
	a := Project(Scan("w1", "Emp"), "Emp.ID")
	b := Project(Scan("w1", "Emp"), "emp.id")
	if !a.Equal(b) || a.Signature() != b.Signature() {
		t.Errorf("column case folding mismatch: Equal=%v sigEq=%v", a.Equal(b), a.Signature() == b.Signature())
	}
	c := Scan("w1", "emp")
	d := Scan("w1", "Emp")
	if c.Equal(d) || c.Signature() == d.Signature() {
		t.Errorf("collection names are case-sensitive: Equal=%v sigEq=%v", c.Equal(d), c.Signature() == d.Signature())
	}
}

func TestSignatureNumericConstants(t *testing.T) {
	// Constant.Equal identifies Int(1) and Float(1): so must signatures.
	a := Select(Scan("w", "C"), NewSelPred(Ref{Attr: "x"}, stats.CmpEQ, types.Int(1)))
	b := Select(Scan("w", "C"), NewSelPred(Ref{Attr: "x"}, stats.CmpEQ, types.Float(1)))
	if !a.Equal(b) {
		t.Fatal("Equal should identify numerically equal constants")
	}
	if a.Signature() != b.Signature() {
		t.Errorf("signatures differ for numerically equal constants:\n%s\n%s", a.Signature(), b.Signature())
	}
}

func TestSignatureAdversarialNames(t *testing.T) {
	// Names containing the encoding's own delimiters must not collide.
	a := Scan(`w"1`, `c`)
	b := Scan(`w`, `"1c`)
	if a.Signature() == b.Signature() {
		t.Error("quoted fields should prevent delimiter injection collisions")
	}
}
