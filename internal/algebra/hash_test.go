package algebra

import (
	"math/rand"
	"testing"

	"disco/internal/stats"
	"disco/internal/types"
)

// TestHashMatchesSignaturePairs runs the structural hash over the same
// pairwise-distinct plan family the signature tests use: signatures equal
// iff hashes equal.
func TestHashMatchesSignaturePairs(t *testing.T) {
	plans := sigPlans()
	for na, a := range plans {
		for nb, b := range plans {
			sigEq := a.Signature() == b.Signature()
			hashEq := a.StructuralHash() == b.StructuralHash()
			if sigEq != hashEq {
				t.Errorf("%s vs %s: sigEq=%v hashEq=%v (hashA=%s hashB=%s)",
					na, nb, sigEq, hashEq, a.StructuralHash(), b.StructuralHash())
			}
		}
	}
}

// randPlan generates a random plan tree of the given depth; the generator
// draws from small pools of names, constants and operators so that equal
// trees occur with realistic probability.
func randPlan(r *rand.Rand, depth int) *Node {
	wrappers := []string{"w1", "w2", "W1"}
	colls := []string{"Emp", "Dept", "emp", "Órders"}
	attrs := []string{"id", "ID", "salary", "dept", "ſtraße"}
	consts := []types.Constant{
		types.Int(1), types.Int(7), types.Float(1), types.Float(2.5),
		types.Str("x"), types.Str("1"), types.Bool(true), types.Null,
	}
	ops := []stats.CmpOp{stats.CmpEQ, stats.CmpLT, stats.CmpLE, stats.CmpGT}
	ref := func() Ref {
		return Ref{Collection: colls[r.Intn(len(colls))], Attr: attrs[r.Intn(len(attrs))]}
	}
	cmp := func() Comparison {
		c := Comparison{Left: ref(), Op: ops[r.Intn(len(ops))]}
		if r.Intn(2) == 0 {
			rt := ref()
			c.RightAttr = &rt
		} else {
			c.RightConst = consts[r.Intn(len(consts))]
		}
		return c
	}
	pred := func() *Predicate {
		n := r.Intn(3)
		if n == 0 && r.Intn(2) == 0 {
			return nil
		}
		p := &Predicate{}
		for i := 0; i < n; i++ {
			p.Conjuncts = append(p.Conjuncts, cmp())
		}
		return p
	}
	if depth <= 0 {
		return Scan(wrappers[r.Intn(len(wrappers))], colls[r.Intn(len(colls))])
	}
	switch r.Intn(8) {
	case 0:
		return Scan(wrappers[r.Intn(len(wrappers))], colls[r.Intn(len(colls))])
	case 1:
		return Select(randPlan(r, depth-1), pred())
	case 2:
		cols := make([]string, 1+r.Intn(2))
		for i := range cols {
			cols[i] = attrs[r.Intn(len(attrs))]
		}
		return Project(randPlan(r, depth-1), cols...)
	case 3:
		return Sort(randPlan(r, depth-1), SortKey{Attr: ref(), Desc: r.Intn(2) == 0})
	case 4:
		return Join(randPlan(r, depth-1), randPlan(r, depth-1), pred())
	case 5:
		return Union(randPlan(r, depth-1), randPlan(r, depth-1))
	case 6:
		var aggs []AggSpec
		for i := 0; i <= r.Intn(2); i++ {
			a := AggSpec{Func: AggFunc(r.Intn(5)), As: attrs[r.Intn(len(attrs))]}
			if r.Intn(3) == 0 {
				a.Star = true
			} else {
				a.Attr = ref()
			}
			aggs = append(aggs, a)
		}
		return Aggregate(randPlan(r, depth-1), []Ref{ref()}, aggs)
	default:
		return Submit(randPlan(r, depth-1), wrappers[r.Intn(len(wrappers))])
	}
}

// TestHashSignatureAgreementRandom is the randomized agreement test: over
// generated plan trees, two plans hash equal exactly when their canonical
// signatures are equal. Unicode names in the pools exercise the
// case-folding path.
func TestHashSignatureAgreementRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 300
	plans := make([]*Node, n)
	for i := range plans {
		plans[i] = randPlan(r, 1+r.Intn(3))
	}
	bySig := map[string]Hash128{}
	byHash := map[Hash128]string{}
	for i, p := range plans {
		sig, h := p.Signature(), p.StructuralHash()
		if prev, ok := bySig[sig]; ok && prev != h {
			t.Fatalf("plan %d: equal signatures, different hashes\nsig=%s", i, sig)
		}
		bySig[sig] = h
		if prev, ok := byHash[h]; ok && prev != sig {
			t.Fatalf("plan %d: hash collision between different signatures\n%s\n%s", i, prev, sig)
		}
		byHash[h] = sig
	}
}

// TestHashIncrementalReuse verifies the bottom-up caching: hashing a tree
// caches every subtree, a clone carries the cache, and a parent built over
// a hashed subtree reuses the child hash rather than recomputing it.
func TestHashIncrementalReuse(t *testing.T) {
	child := Select(Scan("w1", "Emp"), NewSelPred(Ref{Attr: "id"}, stats.CmpLT, types.Int(7)))
	h1 := child.StructuralHash()
	if !child.hashOK || !child.Children[0].hashOK {
		t.Fatal("hashing should cache the whole subtree")
	}

	clone := child.Clone()
	if !clone.hashOK || clone.StructuralHash() != h1 {
		t.Error("clone should carry the cached hash")
	}

	// Corrupt the child's cached hash, then hash a new parent: the parent
	// must combine the cached (corrupt) value, proving it did not re-walk
	// the subtree.
	parent := Submit(child, "w1")
	hOrig := parent.StructuralHash()
	parent2 := Submit(clone, "w1")
	clone.hashLo ^= 0xdeadbeef
	if parent2.StructuralHash() == hOrig {
		t.Error("parent hash should be built from the cached child hash")
	}
}

// TestHashCaseFoldEdge pins the Kelvin-sign folding edge: ToLower('K')
// (U+212A, 3 bytes) is 'k' (1 byte), so the hash must frame folded
// strings by content, not raw byte length, to agree with Signature.
func TestHashCaseFoldEdge(t *testing.T) {
	a := Project(Scan("w", "C"), "Kelvin")
	b := Project(Scan("w", "C"), "kelvin")
	sigEq := a.Signature() == b.Signature()
	hashEq := a.StructuralHash() == b.StructuralHash()
	if sigEq != hashEq {
		t.Errorf("folding edge: sigEq=%v hashEq=%v", sigEq, hashEq)
	}
}
