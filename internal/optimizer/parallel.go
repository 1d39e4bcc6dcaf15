package optimizer

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"disco/internal/algebra"
	"disco/internal/core"
)

// search carries the state of one Optimize call: the owning optimizer,
// the optional memo table, and the search counters. Counters are atomics
// so the dynamic program's workers update them without coordination.
type search struct {
	o           *Optimizer
	memo        *memoTable
	plansCosted atomic.Int64
	pruned      atomic.Int64
	memoHits    atomic.Int64
	cacheHits   atomic.Int64
}

func newSearch(o *Optimizer) *search {
	s := &search{o: o}
	if o.Opt.Memo {
		s.memo = newMemoTable()
	}
	return s
}

// result snapshots the counters into a fresh Result.
func (s *search) result() *Result {
	return &Result{
		PlansCosted:       int(s.plansCosted.Load()),
		PrunedEstimations: int(s.pruned.Load()),
		MemoHits:          int(s.memoHits.Load()),
		CachePricedPaths:  int(s.cacheHits.Load()),
	}
}

// subsetState accumulates the winner of one relation subset during a
// level. The winner is selected under the mutex by lexicographic (cost,
// candidate index) minimum — the first candidate in enumeration order
// achieving the minimum cost — so worker timing cannot change the
// outcome. The atomic bits mirror the best cost seen so far
// for lock-free branch-and-bound reads; Float64bits ordering agrees with
// float ordering on the non-negative costs the estimator produces.
type subsetState struct {
	set  uint64
	bits atomic.Uint64 // Float64bits of cost, mirrored for lock-free reads

	mu   sync.Mutex
	t    *tagged
	cost float64
	idx  int
}

func newSubsetState(set uint64) *subsetState {
	st := &subsetState{set: set, cost: math.Inf(1), idx: -1}
	st.bits.Store(math.Float64bits(math.Inf(1)))
	return st
}

// bound returns the current pruning budget for this subset: the cheapest
// fully-costed candidate so far, +Inf before the first one lands.
func (st *subsetState) bound() float64 { return math.Float64frombits(st.bits.Load()) }

// offer records a fully-costed candidate.
func (st *subsetState) offer(t *tagged, cost float64, idx int) {
	st.mu.Lock()
	if cost < st.cost || (cost == st.cost && idx < st.idx) {
		st.t, st.cost, st.idx = t, cost, idx
		st.bits.Store(math.Float64bits(cost))
	}
	st.mu.Unlock()
}

// winner returns the selected entry, or nil when every candidate was
// pruned away.
func (st *subsetState) winner() *entry {
	if st.idx < 0 {
		return nil
	}
	return &entry{t: st.t, cost: st.cost}
}

// dpJob is one unit of level work: price candidate t (the idx-th
// candidate of its subset in canonical order) and offer it to state.
type dpJob struct {
	state *subsetState
	idx   int
	t     *tagged
}

// errNoJoinOrder reports that no candidate covered every base unit.
var errNoJoinOrder = errors.New("optimizer: no join order found (disconnected join graph)")

// joinDP runs the dynamic program over subsets of the base units,
// producing the cheapest join tree candidates can build. candidates
// enumerates one subset's join candidates, in a deterministic order, from
// the winners of strictly smaller subsets. The program is
// level-synchronous: each popcount level depends only on earlier levels,
// so the level's candidates are enumerated up front and priced by up to
// `workers` goroutines (the caller's included), with a barrier before
// the winners are frozen into the best table.
//
// Why the chosen plan does not depend on the worker count:
//
//  1. Workers only read the best table, which is frozen between levels —
//     every candidate is built from the same subplans at any count.
//  2. Each candidate carries its index in the enumeration order, and the
//     per-subset winner is the lexicographic minimum of (cost, index):
//     the lowest-index candidate achieving the minimum cost.
//  3. Branch-and-bound prunes a candidate only when the estimator's
//     running cost strictly exceeds the bound in place when it is priced.
//     The bound is always >= the subset's final minimum, so only
//     candidates strictly worse than the winner can be pruned, whatever
//     the worker timing. (PrunedEstimations does vary with timing; the
//     plan and its cost do not.)
//
// Each extra worker prices candidates on its own estimator clone; the
// caller's goroutine uses the optimizer's own estimator.
func (s *search) joinDP(base []*tagged, workers int,
	candidates func(best map[uint64]*entry, set uint64, size int) []*tagged) (*tagged, error) {
	n := len(base)
	best := make(map[uint64]*entry, 1<<uint(n))
	for i, b := range base {
		c, err := s.costTagged(s.o.Est, b, 0)
		if err != nil {
			return nil, err
		}
		best[1<<uint(i)] = &entry{t: b, cost: c}
	}

	ests := make([]*core.Estimator, workers)
	ests[0] = s.o.Est
	for i := 1; i < workers; i++ {
		ests[i] = s.o.Est.Clone()
	}

	full := uint64(1)<<uint(n) - 1
	var states []*subsetState
	var jobs []dpJob
	for size := 2; size <= n; size++ {
		states = states[:0]
		jobs = jobs[:0]
		for set := uint64(1); set <= full; set++ {
			if popcount(set) != size {
				continue
			}
			cands := candidates(best, set, size)
			if len(cands) == 0 {
				continue
			}
			st := newSubsetState(set)
			states = append(states, st)
			for i, t := range cands {
				// Candidates share uncloned subtrees, so all lazy per-node
				// state — the materialized submit, the resolved schemas,
				// the cached structural hash — is filled here, before any
				// goroutine starts (a happens-before edge). Workers then
				// only read the trees: the memo, the cache view and the
				// estimator's exact-rule prefilter all find the hash
				// cached, even for a rule published mid-search.
				m := t.materialize()
				if err := algebra.Resolve(m, s.o.Cat); err != nil {
					return nil, err
				}
				m.StructuralHash()
				jobs = append(jobs, dpJob{state: st, idx: i, t: t})
			}
		}
		if len(jobs) == 0 {
			continue
		}
		if err := s.priceLevel(jobs, ests[:min(workers, len(jobs))]); err != nil {
			return nil, err
		}
		for _, st := range states {
			if e := st.winner(); e != nil {
				best[st.set] = e
			}
		}
	}
	e, ok := best[full]
	if !ok {
		return nil, errNoJoinOrder
	}
	return e.t, nil
}

// priceLevel prices one level's jobs, one worker per estimator. The
// caller's goroutine is the first worker, so a level with one estimator
// (Workers = 1, or a single job) runs inline.
func (s *search) priceLevel(jobs []dpJob, ests []*core.Estimator) error {
	prune := s.o.pruneEnabled()
	var next atomic.Int64
	var failed atomic.Bool
	var errOnce sync.Once
	var firstErr error
	work := func(est *core.Estimator) {
		for !failed.Load() {
			j := int(next.Add(1)) - 1
			if j >= len(jobs) {
				return
			}
			job := jobs[j]
			budget := math.Inf(1)
			if prune {
				budget = job.state.bound()
			}
			c, err := s.costTagged(est, job.t, budget)
			if err == core.ErrOverBudget {
				s.pruned.Add(1)
				continue
			}
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
			job.state.offer(job.t, c, job.idx)
		}
	}
	var wg sync.WaitGroup
	for _, est := range ests[1:] {
		wg.Add(1)
		go func(est *core.Estimator) {
			defer wg.Done()
			work(est)
		}(est)
	}
	work(ests[0])
	wg.Wait()
	return firstErr
}
