package oo7

import (
	"testing"

	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/stats"
	"disco/internal/types"
)

func TestGeneratePaperLayout(t *testing.T) {
	store := objstore.Open(objstore.DefaultConfig())
	if err := Generate(store, PaperScale(), 1); err != nil {
		t.Fatal(err)
	}
	atomic, ok := store.Collection(AtomicParts)
	if !ok {
		t.Fatal("AtomicParts missing")
	}
	// The paper's layout: 70 000 objects, 56 bytes, exactly 1000 pages.
	if atomic.ExtentStats().CountObject != 70000 {
		t.Errorf("count = %d", atomic.ExtentStats().CountObject)
	}
	if atomic.PageCount() != 1000 {
		t.Errorf("pages = %d, want 1000", atomic.PageCount())
	}
	ext := atomic.ExtentStats()
	if ext.ObjectSize != 56 || ext.TotalSize != 4096000 {
		t.Errorf("extent = %+v", ext)
	}
	idStats, err := atomic.AttributeStats("id")
	if err != nil {
		t.Fatal(err)
	}
	if !idStats.Indexed || idStats.CountDistinct != 70000 ||
		idStats.Min.AsInt() != 0 || idStats.Max.AsInt() != 69999 {
		t.Errorf("id stats = %+v", idStats)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	mk := func() *objstore.Collection {
		store := objstore.Open(objstore.DefaultConfig())
		if err := Generate(store, TinyScale(), 42); err != nil {
			t.Fatal(err)
		}
		c, _ := store.Collection(AtomicParts)
		return c
	}
	a, b := mk(), mk()
	var m netsim.Meter
	ita, itb := a.SeqScan(&m), b.SeqScan(&m)
	for {
		ra, oka := ita.Next()
		rb, okb := itb.Next()
		if oka != okb {
			t.Fatal("different lengths")
		}
		if !oka {
			break
		}
		if !ra.Equal(rb) {
			t.Fatalf("rows differ: %v vs %v", ra, rb)
		}
	}
}

func TestGenerateAllCollections(t *testing.T) {
	store := objstore.Open(objstore.DefaultConfig())
	scale := TinyScale()
	if err := Generate(store, scale, 3); err != nil {
		t.Fatal(err)
	}
	composite, _ := store.Collection(CompositeParts)
	if composite.ExtentStats().CountObject != int64(scale.AtomicParts/scale.AtomicPerComposite) {
		t.Errorf("composite count = %d", composite.ExtentStats().CountObject)
	}
	docs, _ := store.Collection(Documents)
	if docs.ExtentStats().CountObject != int64(scale.AtomicParts) {
		t.Errorf("docs count = %d", docs.ExtentStats().CountObject)
	}
	conns, _ := store.Collection(Connections)
	if conns.ExtentStats().CountObject != int64(scale.AtomicParts*scale.ConnectionsPerAtomic) {
		t.Errorf("connections count = %d", conns.ExtentStats().CountObject)
	}
	// Referential structure: every connection src indexes a real part.
	atomic, _ := store.Collection(AtomicParts)
	var m netsim.Meter
	rows, err := conns.IndexSelect(&m, "src", stats.CmpEQ, types.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows); n != scale.ConnectionsPerAtomic {
		t.Errorf("part 0 has %d connections, want %d", n, scale.ConnectionsPerAtomic)
	}
	_ = atomic
}

func TestGenerateErrors(t *testing.T) {
	store := objstore.Open(objstore.DefaultConfig())
	if err := Generate(store, Scale{}, 1); err == nil {
		t.Error("zero scale should fail")
	}
	if err := Generate(store, TinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	if err := Generate(store, TinyScale(), 1); err == nil {
		t.Error("regeneration into the same store should fail (duplicate collections)")
	}
}

func TestQueryBuilders(t *testing.T) {
	scale := TinyScale()
	q := RangeOnID("w", scale, 0.5)
	if q.Kind.String() != "select" || q.Children[0].Collection != AtomicParts {
		t.Errorf("RangeOnID shape: %s", q)
	}
	if v := q.Pred.Conjuncts[0].RightConst.AsInt(); v != 1000 {
		t.Errorf("cut = %d, want 1000", v)
	}
}
