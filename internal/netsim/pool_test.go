package netsim_test

import (
	"container/list"
	"math"
	"math/rand"
	"testing"

	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
)

// lruModel is a map-and-list LRU buffer, the reference the flat pool's
// hit/miss sequence is checked against.
type lruModel struct {
	capacity     int
	lru          *list.List // of modelKey, front = most recent
	entries      map[modelKey]*list.Element
	hits, misses int64
}

type modelKey struct {
	owner int
	page  int32
}

func newLRUModel(capacity int) *lruModel {
	m := &lruModel{capacity: capacity}
	m.reset()
	return m
}

func (m *lruModel) touch(owner int, page int32) bool {
	k := modelKey{owner, page}
	if el, ok := m.entries[k]; ok {
		m.lru.MoveToFront(el)
		m.hits++
		return true
	}
	m.misses++
	if m.lru.Len() >= m.capacity {
		oldest := m.lru.Back()
		delete(m.entries, oldest.Value.(modelKey))
		m.lru.Remove(oldest)
	}
	m.entries[k] = m.lru.PushFront(k)
	return false
}

func (m *lruModel) reset() {
	m.lru = list.New()
	m.entries = make(map[modelKey]*list.Element)
	m.hits, m.misses = 0, 0
}

// pagedStore is one store under test, seen through its public API: it
// owns three page tables (collections or tables) of one row per page, so
// a point read of row p touches exactly page p of its owner.
type pagedStore struct {
	ioMS  float64
	reset func()
	// grow appends a page to owner i.
	grow func(i int)
	// read point-reads page p of owner i, charging m.
	read func(m *netsim.Meter, i int, p int32)
	// charge is what read charges, given whether its page hit.
	charge func(m *netsim.Meter, hit bool)
}

func idSchema(coll string) *types.Schema {
	return types.NewSchema(types.Field{Name: "id", Collection: coll, Type: types.KindInt})
}

// objPaged is an object store of three collections read by unique index
// probes: probe, I/O on a miss, CPU.
func objPaged(t *testing.T, capacity int) *pagedStore {
	cfg := objstore.DefaultConfig()
	cfg.BufferPages = capacity
	s := objstore.Open(cfg)
	var colls []*objstore.Collection
	for _, name := range []string{"a", "b", "c"} {
		// One object fills a page.
		c, err := s.CreateCollection(name, idSchema(name), int(float64(cfg.PageSize)*cfg.FillFactor))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateIndex("id", true); err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}
	return &pagedStore{
		ioMS:  cfg.IOTimeMS,
		reset: s.ResetBuffer,
		grow: func(i int) {
			c := colls[i]
			if err := c.Insert(types.Row{types.Int(int64(c.PageCount()))}); err != nil {
				t.Fatal(err)
			}
		},
		read: func(m *netsim.Meter, i int, p int32) {
			rows, err := colls[i].IndexSelect(m, "id", stats.CmpEQ, types.Int(int64(p)))
			if err != nil || len(rows) != 1 {
				t.Fatalf("read %s page %d: %d rows, %v", colls[i].Name(), p, len(rows), err)
			}
		},
		charge: func(m *netsim.Meter, hit bool) {
			m.Add(cfg.ProbeTimeMS)
			if !hit {
				m.Add(cfg.IOTimeMS)
			}
			m.Add(cfg.CPUTimeMS)
		},
	}
}

// relPaged is a relational store of three tables read by hash probes:
// probe, then I/O on a miss and CPU for the matching row.
func relPaged(t *testing.T, capacity int) *pagedStore {
	cfg := relstore.DefaultConfig()
	cfg.BufferPages = capacity
	s := relstore.Open(cfg)
	var tables []*relstore.Table
	for _, name := range []string{"a", "b", "c"} {
		tb, err := s.CreateTable(name, idSchema(name), cfg.PageSize) // one row fills a page
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.CreateHashIndex("id"); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	return &pagedStore{
		ioMS:  cfg.IOTimeMS,
		reset: s.ResetBuffer,
		grow: func(i int) {
			tb := tables[i]
			if err := tb.Insert(types.Row{types.Int(int64(tb.PageCount()))}); err != nil {
				t.Fatal(err)
			}
		},
		read: func(m *netsim.Meter, i int, p int32) {
			rows, err := tables[i].Probe(m, "id", stats.CmpEQ, types.Int(int64(p)))
			if err != nil || len(rows) != 1 {
				t.Fatalf("read %s page %d: %d rows, %v", tables[i].Name(), p, len(rows), err)
			}
		},
		charge: func(m *netsim.Meter, hit bool) {
			m.Add(cfg.HashProbeMS)
			if !hit {
				m.Add(cfg.IOTimeMS)
			}
			m.Add(cfg.CPUTimeMS)
		},
	}
}

// Seeded random page traces over three owners of one store — objstore
// collections, then relstore tables — hit and miss the shared pool
// exactly where they hit and miss the reference LRU, at capacities 1, 2
// and 256, across a ResetBuffer partway through and with owners growing
// past their earlier last page; the meters agree bit for bit.
func TestBufferPoolMatchesLRUModel(t *testing.T) {
	for _, kind := range []struct {
		name string
		open func(*testing.T, int) *pagedStore
	}{{"objstore", objPaged}, {"relstore", relPaged}} {
		t.Run(kind.name, func(t *testing.T) {
			for _, capacity := range []int{1, 2, 256} {
				for seed := int64(1); seed <= 3; seed++ {
					s := kind.open(t, capacity)
					model := newLRUModel(capacity)
					for i, pages := range []int{4, 40, 400} {
						for range pages {
							s.grow(i)
						}
					}
					pages := []int32{4, 40, 400}
					var got, want netsim.Meter
					rng := rand.New(rand.NewSource(seed))
					const steps = 6000
					for step := 0; step < steps; step++ {
						if step == steps/2 {
							s.reset()
							model.reset()
						}
						i := rng.Intn(len(pages))
						if rng.Intn(50) == 0 {
							for range 1 + rng.Intn(8) {
								s.grow(i)
								pages[i]++
							}
						}
						// Skew toward low pages so every capacity sees hits.
						p := int32(rng.Intn(int(pages[i])))
						if rng.Intn(2) == 0 {
							p = int32(rng.Intn(int(min(pages[i], 3))))
						}
						before := got.MS()
						s.read(&got, i, p)
						hit := got.MS()-before < s.ioMS
						modelHit := model.touch(i, p)
						if hit != modelHit {
							t.Fatalf("capacity %d seed %d step %d: owner %d page %d hit = %v, model %v",
								capacity, seed, step, i, p, hit, modelHit)
						}
						s.charge(&want, modelHit)
					}
					if math.Float64bits(got.MS()) != math.Float64bits(want.MS()) {
						t.Errorf("capacity %d seed %d: meter %v, model %v", capacity, seed, got.MS(), want.MS())
					}
					if model.hits == 0 || model.misses == 0 {
						t.Errorf("capacity %d seed %d: trace saw %d hits, %d misses", capacity, seed, model.hits, model.misses)
					}
				}
			}
		})
	}
}

// The pool's own counters follow the model on a trace over three page
// tables, and Reset clears them.
func TestPoolCounters(t *testing.T) {
	p := netsim.NewPool(3)
	model := newLRUModel(3)
	tables := make([]netsim.PageTable, 3)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2000; step++ {
		i, page := rng.Intn(3), int32(rng.Intn(4))
		if p.Touch(&tables[i], page) != model.touch(i, page) {
			t.Fatalf("step %d: table %d page %d disagrees with the model", step, i, page)
		}
	}
	if h, m := p.Stats(); h != model.hits || m != model.misses {
		t.Errorf("hits/misses %d/%d, model %d/%d", h, m, model.hits, model.misses)
	}
	p.Reset()
	if h, m := p.Stats(); h != 0 || m != 0 {
		t.Errorf("after Reset: hits/misses %d/%d", h, m)
	}
	if p.Touch(&tables[0], 0) {
		t.Error("a page survived Reset")
	}
}
