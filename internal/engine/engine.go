// Package engine implements the mediator's physical execution engine
// (paper Figure 2 steps 4-6): it runs an optimized plan through the
// vectorized batch pipeline (internal/vexec), delegates submit subtrees
// to their wrappers, ships results over the simulated network, and
// combines subanswers with mediator-side operators, charging all work to
// the execution's own meter. Measured (virtual) response times from this
// engine are the "Experiment" series of the reproduction.
//
// Each execution sums its own virtual time from zero, so concurrent
// executions never land in each other's times. A submit's time is its
// wrapper's Result.VirtualMS plus its link's transfer time, charged as
// the pipeline reaches it; mediator-side operator time is charged
// analytically after the pipeline drains, from the per-operator row
// counts vexec reports, so simulated response times — and the
// per-operator profile built from them — do not depend on how the
// pipeline batches or spills.
package engine

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/feedback"
	"disco/internal/netsim"
	"disco/internal/types"
	"disco/internal/vexec"
	"disco/internal/wrapper"
)

// Engine executes optimized plans.
type Engine struct {
	wrappers map[string]wrapper.Wrapper
	net      *netsim.Network

	// downMu guards down: submits consult it, and a wrapper failing
	// mid-query updates it.
	downMu sync.Mutex
	down   map[string]bool

	// SubmitHook, when set, observes every executed submit node with its
	// measured virtual time; the history recorder (§4.3.1) hangs off it.
	SubmitHook func(submit *algebra.Node, elapsedMS float64, rows int, bytes int64)
	// OnUnavailable, when set, is notified the first time a wrapper is
	// marked down (submit failed with wrapper.ErrUnavailable). The
	// mediator uses it to drop the wrapper's cost rules so estimation
	// falls back to the generic model.
	OnUnavailable func(wrapper string)
	// Exec configures the vectorized pipeline: the spill memory budget,
	// spill directory and batch size. The zero value never spills.
	Exec vexec.Options
}

// New builds an engine over the registered wrappers; net (nil ships for
// free) prices each submit's transfer. The wrapper map is snapshot-copied:
// an engine's view of the federation is immutable for its lifetime, so
// in-flight executions on a superseded engine stay race-free while a
// registration builds its replacement from the live map.
func New(net *netsim.Network, wrappers map[string]wrapper.Wrapper) *Engine {
	return &Engine{wrappers: maps.Clone(wrappers), net: net, down: make(map[string]bool)}
}

// MarkUnavailable records a wrapper as down: later submits to it are
// excluded (partial answers) without re-attempting the transport.
func (e *Engine) MarkUnavailable(name string) {
	e.downMu.Lock()
	already := e.down[name]
	e.down[name] = true
	e.downMu.Unlock()
	if !already && e.OnUnavailable != nil {
		e.OnUnavailable(name)
	}
}

func (e *Engine) isDown(name string) bool {
	e.downMu.Lock()
	defer e.downMu.Unlock()
	return e.down[name]
}

// Result is a materialized query answer with its measured virtual time.
type Result struct {
	Rows      []types.Row
	Schema    *types.Schema
	ElapsedMS float64
	// Partial reports that at least one wrapper was unavailable and the
	// rows its subplans would have contributed are missing from the
	// answer (the paper's unavailable-source scenario: the mediator
	// answers with what the surviving sources provide).
	Partial bool
	// Excluded lists the unavailable wrappers, sorted.
	Excluded []string
	// Profile records the per-operator actuals of this run (output and
	// consumed cardinalities, virtual times, wrapper round-trips), keyed
	// by the executed plan's nodes. Submits excluded on the partial path
	// are recorded too — a degraded run's profile is never silently
	// empty.
	Profile *feedback.Profile
}

// submitFacts are the transport facts of one executed submit boundary,
// recorded while the pipeline's Leaf hook runs it and folded into the
// profile afterwards.
type submitFacts struct {
	trips     int
	bytes     int64
	excluded  bool
	elapsedMS float64
}

// execState accumulates per-execution degradation facts, the profile
// under construction, the per-submit transport facts and the execution's
// virtual time.
type execState struct {
	meter    netsim.Meter
	excluded map[string]bool
	prof     *feedback.Profile
	submits  map[*algebra.Node]*submitFacts
}

func (st *execState) exclude(name string) {
	if st.excluded == nil {
		st.excluded = make(map[string]bool)
	}
	st.excluded[name] = true
}

// Execute runs a resolved, optimized plan as one pipeline and returns
// the answer with the virtual time it took. A submit whose wrapper is (or
// becomes) unavailable does not fail the query: its subtree contributes
// no rows and the result is marked Partial with the wrapper listed in
// Excluded.
func (e *Engine) Execute(plan *algebra.Node) (*Result, error) {
	st := execState{prof: feedback.NewProfile(), submits: make(map[*algebra.Node]*submitFacts)}
	counts := vexec.Counts{}
	rows, err := vexec.Run(plan, &vexec.Env{
		Opts:   e.Exec,
		Counts: counts,
		Leaf:   func(n *algebra.Node) ([]types.Row, bool, error) { return e.leaf(n, &st) },
	})
	if err != nil {
		return nil, err
	}
	e.charge(plan, counts, &st)
	res := &Result{Rows: rows, Schema: plan.OutSchema, ElapsedMS: st.meter.MS(), Profile: st.prof}
	if len(st.excluded) > 0 {
		res.Partial = true
		res.Excluded = make([]string, 0, len(st.excluded))
		for n := range st.excluded {
			res.Excluded = append(res.Excluded, n)
		}
		sort.Strings(res.Excluded)
	}
	st.prof.ElapsedMS = res.ElapsedMS
	st.prof.Partial = res.Partial
	return res, nil
}

// leaf is the pipeline's Leaf hook: it executes submit boundaries
// (wrapper delegation, outage degradation, shipping), charging each
// submit's time to the execution as it finishes, rejects bare scans, and
// leaves every other node to the generic vectorized operators.
func (e *Engine) leaf(n *algebra.Node, st *execState) ([]types.Row, bool, error) {
	switch n.Kind {
	case algebra.OpSubmit:
		f := &submitFacts{}
		st.submits[n] = f
		rows, err := e.submit(n, st, f)
		st.meter.Add(f.elapsedMS)
		return rows, true, err

	case algebra.OpScan:
		return nil, false, fmt.Errorf("engine: scan of %s@%s not placed under a submit", n.Collection, n.Wrapper)
	}
	return nil, false, nil
}

// submit executes one submit boundary, recording the transport facts and
// the submit's virtual time for the profile.
func (e *Engine) submit(n *algebra.Node, st *execState, f *submitFacts) ([]types.Row, error) {
	w, ok := e.wrappers[n.Wrapper]
	if !ok {
		return nil, fmt.Errorf("engine: submit to unknown wrapper %q", n.Wrapper)
	}
	if e.isDown(n.Wrapper) {
		// Known-dead source: exclude without touching the transport.
		st.exclude(n.Wrapper)
		f.excluded = true
		return nil, nil
	}
	f.trips = 1
	res, err := w.Execute(n.Children[0])
	if res != nil { // a failed execute may still report the time it cost
		f.elapsedMS = res.VirtualMS
	}
	if err != nil {
		if errors.Is(err, wrapper.ErrUnavailable) {
			// The source died mid-query: degrade to a partial answer
			// rather than failing, per the paper's unavailable-source
			// discussion.
			e.MarkUnavailable(n.Wrapper)
			st.exclude(n.Wrapper)
			f.excluded = true
			return nil, nil
		}
		return nil, fmt.Errorf("engine: wrapper %s: %w", n.Wrapper, err)
	}
	if e.net != nil {
		f.elapsedMS += e.net.LinkFor(n.Wrapper).TransferMS(res.Bytes)
	}
	f.bytes = res.Bytes
	if e.SubmitHook != nil {
		e.SubmitHook(n, f.elapsedMS, len(res.Rows), res.Bytes)
	}
	return res.Rows, nil
}

// charge replays the mediator-side operator costs analytically after a
// pipeline drains, charging the execution's meter and building the profile
// in post-order: a node's own share is its formula, its subtree time is
// that plus the children's. Submit boundaries carry the live-measured
// facts from the Leaf hook and are opaque below (the wrapper executed the
// subtree; there are no mediator charges under it). The formulas are the
// cost model's Med* ones over observed row counts, so the charge is the
// same however the pipeline ran.
func (e *Engine) charge(n *algebra.Node, counts vexec.Counts, st *execState) *feedback.OpActual {
	if n.Kind == algebra.OpSubmit {
		f := st.submits[n]
		if f == nil {
			f = &submitFacts{}
		}
		out := counts.Out(n)
		a := &feedback.OpActual{
			// The wrapper executes the subtree opaquely; the boundary's
			// consumed rows are the rows it delivered.
			RowsIn:     out,
			RowsOut:    out,
			SubtreeMS:  f.elapsedMS,
			OwnMS:      f.elapsedMS,
			Wrapper:    n.Wrapper,
			RoundTrips: f.trips,
			Bytes:      f.bytes,
			Excluded:   f.excluded,
		}
		st.prof.ByNode[n] = a
		return a
	}
	var kidsMS float64
	var in int64
	for _, c := range n.Children {
		ca := e.charge(c, counts, st)
		kidsMS += ca.SubtreeMS
		in += ca.RowsOut
	}
	out := counts.Out(n)
	own := e.ownCharge(n, counts, in, out)
	st.meter.Add(own)
	a := &feedback.OpActual{RowsIn: in, RowsOut: out, OwnMS: own, SubtreeMS: own + kidsMS}
	st.prof.ByNode[n] = a
	return a
}

// ownCharge is one mediator operator's virtual-time formula over its
// consumed and produced cardinalities, at the generic model's local-scope
// coefficients (core.MedPerObj, ...), so that accurate cardinalities
// imply accurate mediator estimates.
func (e *Engine) ownCharge(n *algebra.Node, counts vexec.Counts, in, out int64) float64 {
	switch n.Kind {
	case algebra.OpSelect:
		return float64(in) * core.MedPerPred
	case algebra.OpProject:
		return float64(in) * core.MedProjPerObj
	case algebra.OpSort:
		return nLogN(int(in)) * core.MedSortPerObj
	case algebra.OpDupElim:
		return float64(in) * core.MedHashPerObj
	case algebra.OpAggregate:
		return float64(in)*core.MedHashPerObj + float64(out)*core.MedPerObj
	case algebra.OpUnion:
		return float64(out) * core.MedPerObj
	case algebra.OpJoin:
		l := counts.Out(n.Children[0])
		r := counts.Out(n.Children[1])
		if counts.Stat(n).HashJoin {
			return float64(l+r)*core.MedHashPerObj + float64(out)*core.MedPerObj
		}
		return float64(l*r) * core.MedJoinPerPair
	}
	return 0
}

func nLogN(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	f := float64(n)
	// log2 via the change of base; n log2(n+2) matches the cost model.
	l := 0.0
	for x := n + 2; x > 1; x >>= 1 {
		l++
	}
	return f * l
}
