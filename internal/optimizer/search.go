package optimizer

import (
	"errors"
	"math"
	"math/bits"
	"sync"

	"disco/internal/algebra"
)

// search carries the state of one Optimize call: the owning optimizer,
// the join edges between its base units, the search counters and the
// search's buffers.
type search struct {
	o           *Optimizer
	edges       []edge
	plansCosted int
	// adj holds, per base unit, the units an edge connects it to, and
	// incident the indexes of its edges; all indexes every edge. All are
	// in edge order.
	adj      []uint64
	incident [][]int
	all      []int
	// allChecked reports that every edge is ok, so that no candidate
	// needs its inputs' schemas (see keep).
	allChecked bool
	*buffers
	slab []tagged // the unused rest of the current candidate chunk
}

// buffers are the memory a search uses only while it runs: candidate
// chunks, the subset table and the candidate list. A search takes them
// from bufferPool and release returns them, cleared: the plan a search
// returns holds nodes, never candidates.
type buffers struct {
	chunks [][]tagged
	used   int // chunks handed out
	best   []entry
	cands  []*tagged
}

var bufferPool = sync.Pool{New: func() any { return new(buffers) }}

// candidateChunk is the number of candidates a chunk holds.
const candidateChunk = 64

// release clears the buffers and returns them to the pool.
func (s *search) release() {
	b := s.buffers
	for _, c := range b.chunks[:b.used] {
		clear(c)
	}
	b.used = 0
	clear(b.best)
	clear(b.cands[:cap(b.cands)])
	s.buffers, s.slab = nil, nil
	bufferPool.Put(b)
}

// table returns the cleared subset table for n units.
func (b *buffers) table(n int) []entry {
	if cap(b.best) < 1<<uint(n) {
		b.best = make([]entry, 1<<uint(n))
	}
	b.best = b.best[:1<<uint(n)]
	return b.best
}

// newSearch starts the state of one Optimize call: the block's join edges
// and, per relation, its neighbours and edges.
func newSearch(o *Optimizer, qb *QueryBlock) *search {
	s := &search{o: o, edges: joinEdges(qb), buffers: bufferPool.Get().(*buffers)}
	n := len(qb.Relations)
	s.adj = make([]uint64, n)
	s.incident = make([][]int, n)
	// all, then each relation's incident edges, in one backing array.
	idx := make([]int, len(s.edges), 3*len(s.edges))
	for i := range s.edges {
		idx[i] = i
	}
	s.all = idx
	for rel := range s.incident {
		start := len(idx)
		for i := range s.edges {
			if e := &s.edges[i]; (e.lb|e.rb)&(1<<uint(rel)) == 0 {
				continue
			}
			idx = append(idx, i)
		}
		s.incident[rel] = idx[start:len(idx):len(idx)]
	}
	for i := range s.edges {
		e := &s.edges[i]
		s.adj[bits.TrailingZeros64(e.lb)] |= e.rb
		s.adj[bits.TrailingZeros64(e.rb)] |= e.lb
	}
	return s
}

// edge is one join conjunct with the base units its two sides belong to,
// as bits of a unit set; both are computed once per search. ok reports
// that each side is a qualified reference its unit's access path
// resolves. pred is the predicate of the conjunct alone, built on first
// use and shared by every candidate the edge alone connects.
type edge struct {
	c      algebra.Comparison
	lb, rb uint64
	ok     bool
	pred   *algebra.Predicate
}

// check sets ok from the resolved access paths. A candidate join's
// inputs carry every field of their units' access paths, so a qualified
// reference one of them resolves, the join's schema resolves too: a
// predicate made of ok edges needs no algebra.CheckJoin.
func (e *edge) check(base []*tagged) {
	l := base[bits.TrailingZeros64(e.lb)].plan.OutSchema
	r := base[bits.TrailingZeros64(e.rb)].plan.OutSchema
	e.ok = e.c.Left.Collection != "" && e.c.RightAttr.Collection != ""
	if e.ok {
		_, lok := algebra.RefIndex(l, e.c.Left)
		_, rok := algebra.RefIndex(r, *e.c.RightAttr)
		e.ok = lok && rok
	}
}

// newTagged takes a candidate from the search's chunks.
func (s *search) newTagged(plan *algebra.Node, site string, checked bool) *tagged {
	if len(s.slab) == 0 {
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, make([]tagged, candidateChunk))
		}
		s.slab = s.chunks[s.used]
		s.used++
	}
	t := &s.slab[0]
	s.slab = s.slab[1:]
	t.plan, t.site, t.checked = plan, site, checked
	return t
}

// onePred is a predicate of one conjunct in one allocation.
type onePred struct {
	p algebra.Predicate
	c [1]algebra.Comparison
}

// connectingPred collects the join conjuncts linking two unit sets, in
// edge order, into one predicate; nil when none connect them. The
// conjuncts are the edges' own, not copies, and a single edge's predicate
// is shared: predicates are never modified once built. checked reports
// that every conjunct's edge is ok.
func (s *search) connectingPred(a, b uint64) (pred *algebra.Predicate, checked bool) {
	// An edge connecting b is incident to b's unit when b is one unit.
	edges := s.all
	if bits.OnesCount64(b) == 1 {
		edges = s.incident[bits.TrailingZeros64(b)]
	}
	k, last := 0, 0
	checked = true
	for _, i := range edges {
		if s.edges[i].connects(a, b) {
			k, last = k+1, i
			checked = checked && s.edges[i].ok
		}
	}
	switch k {
	case 0:
		return nil, true
	case 1:
		e := &s.edges[last]
		if e.pred == nil {
			one := &onePred{c: [1]algebra.Comparison{e.c}}
			one.p.Conjuncts = one.c[:]
			e.pred = &one.p
		}
		return e.pred, checked
	}
	conj := make([]algebra.Comparison, 0, k)
	for _, i := range edges {
		if s.edges[i].connects(a, b) {
			conj = append(conj, s.edges[i].c)
		}
	}
	return &algebra.Predicate{Conjuncts: conj}, checked
}

// connects reports whether the edge joins a unit of a to a unit of b.
func (e *edge) connects(a, b uint64) bool {
	return (a&e.lb != 0 && b&e.rb != 0) || (a&e.rb != 0 && b&e.lb != 0)
}

// errNoJoinOrder reports that no candidate covered every base unit.
var errNoJoinOrder = errors.New("optimizer: no join order found (disconnected join graph)")

// joinDP runs the dynamic program over subsets of the base units,
// producing the cheapest join tree candidates can build. candidates
// enumerates one subset's join candidates, in a deterministic order, from
// the winners of strictly smaller subsets; subsets are taken in order of
// size, so every winner a candidate is built from is already chosen.
//
// The chosen plan depends only on the query and the cost model:
//
//  1. Candidates are enumerated in a fixed order from the winners of
//     smaller subsets.
//  2. A candidate becomes its subset's winner only if its cost is lower
//     than the best so far: the first candidate in enumeration order
//     that reaches the minimum cost wins.
//  3. The bound is compared against complete candidate costs only. A
//     query-scope history rule (§4.3.1) can price a submit below the
//     model's estimate of the subtree under it, so a node inside a
//     candidate that costs more than the bound does not make the
//     candidate cost more. Pricing every candidate in full stays cheap
//     because the estimator prices each node once per search: a
//     candidate's inputs were priced when they were candidates.
//
// best is indexed by unit set; a subset without a winner has a nil
// candidate.
func (s *search) joinDP(base []*tagged,
	candidates func(best []entry, set uint64, size int) []*tagged) (*tagged, error) {
	n := len(base)
	best := s.table(n)
	for i, b := range base {
		c, err := s.costTagged(b)
		if err != nil {
			return nil, err
		}
		best[1<<uint(i)] = entry{t: b, cost: c}
	}
	full := uint64(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= full; set++ {
			if bits.OnesCount64(set) != size {
				continue
			}
			win := entry{cost: math.Inf(1)}
			for _, t := range candidates(best, set, size) {
				c, err := s.costTagged(t)
				if err != nil {
					return nil, err
				}
				if c < win.cost {
					win.t, win.cost = t, c
				}
			}
			if win.t != nil {
				if err := s.keep(win.t); err != nil {
					return nil, err
				}
				best[set] = win
			}
		}
	}
	if best[full].t == nil {
		return nil, errNoJoinOrder
	}
	return best[full].t, nil
}
