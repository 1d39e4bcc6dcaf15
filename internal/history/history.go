// Package history implements the paper's §4.3.1 extension: HERMES-style
// [ACPS96] historical costs. After a wrapper subquery executes, its
// observed cost vector (TimeFirst, TotalTime, cardinality, size) is
// recorded as a query-scope rule at the very top of the specialization
// hierarchy, so the next estimation of the identical subquery returns the
// real cost.
package history

import (
	"container/list"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/costvm"
)

// maxShapes bounds the subquery shapes remembered per wrapper: the
// proliferation §4.3.1 warns about would otherwise grow with uptime under
// never-repeated ad-hoc traffic. Past the bound the least recently
// observed shape is forgotten; every evaluation pass of this repository
// stays under 1000 shapes per wrapper.
const maxShapes = 4096

// Vector is the observed cost of one subquery execution, averaged over
// repetitions (the paper assumes identical subqueries cost the same
// regardless of time).
type Vector struct {
	TimeFirstMS float64
	TotalTimeMS float64
	CountObject float64
	TotalSize   float64
	Samples     int
}

// Recorder stores cost vectors and maintains the corresponding
// query-scope rules in the registry.
type Recorder struct {
	mu       sync.Mutex
	reg      *core.Registry
	wrappers map[string]*shapes
}

// shapes holds one wrapper's recorded subqueries by the structural hash
// of their submit node, and their recency order.
type shapes struct {
	byHash map[algebra.Hash128]*entry
	recent list.List // of *entry, most recently observed first
}

type entry struct {
	// submit is the recorder's own copy of the observed submit node, taken
	// on first sight; every rule published for the shape shares it.
	submit *algebra.Node
	vec    Vector
	rule   *core.Rule
	pos    *list.Element
}

// NewRecorder attaches a recorder to the registry rules are injected
// into.
func NewRecorder(reg *core.Registry) *Recorder {
	return &Recorder{reg: reg, wrappers: make(map[string]*shapes)}
}

// Len reports the number of recorded subquery shapes.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.wrappers {
		n += len(w.byHash)
	}
	return n
}

// Record stores the observed execution of a wrapper subquery and injects
// (or updates) its query-scope rule. submit is the executed submit node;
// elapsed covers the whole boundary — wrapper work, result delivery and
// shipping — so the injected rule is keyed to the submit node itself and
// replaces the submit estimate wholesale (no double counting of
// delivery).
func (r *Recorder) Record(submit *algebra.Node, elapsedMS float64, rows int64, bytes int64) error {
	if submit == nil || submit.Kind != algebra.OpSubmit || submit.Wrapper == "" {
		return fmt.Errorf("history: record needs a submit node naming its wrapper")
	}
	wrapper := submit.Wrapper
	hash := submit.StructuralHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wrappers[wrapper]
	if w == nil {
		w = &shapes{byHash: make(map[algebra.Hash128]*entry)}
		r.wrappers[wrapper] = w
	}
	e := w.byHash[hash]
	if e != nil && !e.submit.Equal(submit) {
		// Two shapes under one hash: the newcomer takes the slot.
		r.forget(w, e)
		e = nil
	}
	if e == nil {
		if len(w.byHash) >= maxShapes {
			r.forget(w, w.recent.Back().Value.(*entry))
		}
		e = &entry{submit: submit.Clone()}
		e.pos = w.recent.PushFront(e)
		w.byHash[hash] = e
	} else {
		w.recent.MoveToFront(e.pos)
	}
	// Running mean over repetitions.
	n := float64(e.vec.Samples)
	e.vec.TotalTimeMS = (e.vec.TotalTimeMS*n + elapsedMS) / (n + 1)
	e.vec.TimeFirstMS = e.vec.TotalTimeMS // materialized results: first == last
	e.vec.CountObject = (e.vec.CountObject*n + float64(rows)) / (n + 1)
	e.vec.TotalSize = (e.vec.TotalSize*n + float64(bytes)) / (n + 1)
	e.vec.Samples++

	// Published rules are immutable — concurrent estimations may be
	// evaluating them — so repeat observations build a fresh rule and swap
	// the registry pointer instead of rewriting formulas in place.
	fresh := &core.Rule{
		Op:       algebra.OpSubmit,
		Exact:    e.submit,
		Formulas: constFormulas(e.vec),
		Source:   "history " + wrapper + " (" + strconv.Itoa(e.vec.Samples) + " samples)",
	}
	// A rule dropped by an intervening re-registration is published anew.
	if e.rule == nil || !r.reg.ReplaceQueryRule(wrapper, e.rule, fresh) {
		r.reg.AddQueryRule(wrapper, fresh)
	}
	e.rule = fresh
	return nil
}

// forget drops a shape and its published rule; the caller holds r.mu.
func (r *Recorder) forget(w *shapes, e *entry) {
	delete(w.byHash, e.submit.StructuralHash())
	w.recent.Remove(e.pos)
	r.reg.RemoveQueryRule(e.submit.Wrapper, e.rule)
}

// Lookup returns the recorded vector for a subquery shape; submit is the
// submit node, as passed to Record.
func (r *Recorder) Lookup(submit *algebra.Node) (Vector, bool) {
	hash := submit.StructuralHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wrappers[submit.Wrapper]
	if w == nil {
		return Vector{}, false
	}
	e := w.byHash[hash]
	if e == nil || !e.submit.Equal(submit) {
		return Vector{}, false
	}
	return e.vec, true
}

// Summary renders the recorded vectors, most expensive first.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows []*entry
	for _, w := range r.wrappers {
		for _, e := range w.byHash {
			rows = append(rows, e)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].vec.TotalTimeMS > rows[j].vec.TotalTimeMS })
	var b strings.Builder
	for _, e := range rows {
		fmt.Fprintf(&b, "%8.1f ms  %6.0f objects  x%d  @%s  %s\n",
			e.vec.TotalTimeMS, e.vec.CountObject, e.vec.Samples, e.submit.Wrapper,
			strings.ReplaceAll(strings.TrimSpace(e.submit.String()), "\n", " / "))
	}
	return b.String()
}

// constFormulas builds the six constant formulas of an observed vector,
// each a literal program built straight from its value.
func constFormulas(v Vector) []core.Formula {
	timeNext, objectSize := 0.0, 0.0
	if v.CountObject > 0 {
		timeNext = (v.TotalTimeMS - v.TimeFirstMS) / v.CountObject
		objectSize = v.TotalSize / v.CountObject
	}
	mk := func(name string, val float64) core.Formula {
		return core.Formula{Var: name, Prog: costvm.Literal(val)}
	}
	return []core.Formula{
		mk("CountObject", v.CountObject),
		mk("ObjectSize", objectSize),
		mk("TotalSize", v.TotalSize),
		mk("TimeFirst", v.TimeFirstMS),
		mk("TotalTime", v.TotalTimeMS),
		mk("TimeNext", timeNext),
	}
}
