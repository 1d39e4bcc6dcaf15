package optimizer

import (
	"errors"
	"math"
)

// search carries the state of one Optimize call: the owning optimizer and
// the search counters.
type search struct {
	o           *Optimizer
	plansCosted int
	cacheHits   int
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
