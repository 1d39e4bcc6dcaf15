package optimizer

import (
	"errors"
	"math"

	"disco/internal/algebra"
)

// search carries the state of one Optimize call: the owning optimizer,
// the join edges between its base units and the search counters.
type search struct {
	o           *Optimizer
	edges       []edge
	plansCosted int
	cacheHits   int
}

// edge is one join conjunct with the base units its two sides belong to,
// as bits of a unit set; both are computed once per search.
type edge struct {
	c      algebra.Comparison
	lb, rb uint64
}

// connectingPred collects the join conjuncts linking two unit sets into
// one fresh predicate; nil when none connect them.
func (s *search) connectingPred(a, b uint64) *algebra.Predicate {
	var conj []algebra.Comparison
	for i := range s.edges {
		e := &s.edges[i]
		if (a&e.lb != 0 && b&e.rb != 0) || (a&e.rb != 0 && b&e.lb != 0) {
			conj = append(conj, e.c.Clone())
		}
	}
	if len(conj) == 0 {
		return nil
	}
	return &algebra.Predicate{Conjuncts: conj}
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
func (s *search) joinDP(base []*tagged,
	candidates func(best map[uint64]*entry, set uint64, size int) []*tagged) (*tagged, error) {
	n := len(base)
	best := make(map[uint64]*entry, 1<<uint(n))
	for i, b := range base {
		c, err := s.costTagged(b)
		if err != nil {
			return nil, err
		}
		best[1<<uint(i)] = &entry{t: b, cost: c}
	}
	full := uint64(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= full; set++ {
			if popcount(set) != size {
				continue
			}
			win := &entry{cost: math.Inf(1)}
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
				best[set] = win
			}
		}
	}
	e, ok := best[full]
	if !ok {
		return nil, errNoJoinOrder
	}
	return e.t, nil
}
