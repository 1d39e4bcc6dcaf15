package optimizer

import (
	"sync"

	"disco/internal/algebra"
)

// memoShards is the shard count of the memo table; a small power of two
// keeps the modulo cheap while spreading lock traffic across the worker
// pool.
const memoShards = 16

// memoTable caches candidate objective costs for the duration of one
// Optimize call, keyed by the 128-bit structural hash
// (algebra.StructuralHash) — cached on the plan nodes and combined
// incrementally, so keying a candidate costs a few word mixes. The table
// is sharded so the search's workers rarely contend on one lock.
//
// Only complete estimations are stored. A branch-and-bound abort
// (core.ErrOverBudget) is relative to the budget in place at the time and
// must be re-estimated when a looser bound applies, so it is never
// memoized. Stored costs are therefore final, which keeps memo hit/miss
// patterns — which vary with worker timing — from ever changing the
// winning plan.
type memoTable struct {
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.RWMutex
	m  map[algebra.Hash128]float64
}

func newMemoTable() *memoTable {
	t := &memoTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[algebra.Hash128]float64)
	}
	return t
}

func (t *memoTable) get(h algebra.Hash128) (float64, bool) {
	s := &t.shards[h.Lo%memoShards]
	s.mu.RLock()
	c, ok := s.m[h]
	s.mu.RUnlock()
	return c, ok
}

func (t *memoTable) put(h algebra.Hash128, cost float64) {
	s := &t.shards[h.Lo%memoShards]
	s.mu.Lock()
	s.m[h] = cost
	s.mu.Unlock()
}
