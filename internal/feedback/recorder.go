package feedback

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/algebra"
	"disco/internal/core"
)

// Obs is one joined (prediction, actual) observation for a plan node —
// the unit both the q-error accumulators and the Adjuster consume.
type Obs struct {
	Node *algebra.Node
	// Site is the executing location: a wrapper name for submits and the
	// operators below them, "mediator" for mediator-side operators.
	Site string
	// Scope is the accumulator key, "site/operator".
	Scope string

	EstRows float64
	ActRows float64
	ActIn   float64 // rows the operator consumed (actual)
	EstMS   float64 // estimated subtree TotalTime
	ActMS   float64 // measured subtree virtual time
	OwnMS   float64 // measured own (non-subtree) virtual time
	Bytes   int64   // bytes shipped (submit boundaries only)

	QRows float64
	QMS   float64

	// Excluded marks a submit skipped because its wrapper was down: the
	// zero actuals describe an outage, not an estimation error, so the
	// accumulators and the Adjuster ignore the observation.
	Excluded bool
}

// Report is the joined record of one executed plan.
type Report struct {
	Plan      *algebra.Node
	Obs       []Obs
	ElapsedMS float64
	EstMS     float64
	Partial   bool
}

// Recorder joins execution profiles against the estimator's per-node
// predictions and maintains per-scope q-error accumulators. Scopes follow
// the cost model's specialization idea: estimation quality is tracked per
// executing site and operator, so a drifting source stands out instead of
// drowning in the global average.
type Recorder struct {
	mu     sync.Mutex
	window int
	cards  map[string]*Accumulator
	times  map[string]*Accumulator
}

// NewRecorder builds a recorder with the given ring window per scope
// (<= 0 uses the default).
func NewRecorder(window int) *Recorder {
	return &Recorder{
		window: window,
		cards:  make(map[string]*Accumulator),
		times:  make(map[string]*Accumulator),
	}
}

// Observe joins one executed plan's profile against its predicted costs
// and folds the q-errors into the per-scope accumulators. Wrapper-side
// operators below a submit execute opaquely inside the source, so only
// the boundary (the submit itself) and the mediator-side operators above
// it yield actuals.
func (r *Recorder) Observe(plan *algebra.Node, pc *core.PlanCost, prof *Profile) *Report {
	rep := &Report{Plan: plan}
	if prof != nil {
		rep.ElapsedMS = prof.ElapsedMS
		rep.Partial = prof.Partial
	}
	if plan == nil || pc == nil || prof == nil {
		return rep
	}
	if rc, ok := pc.ByNode[plan]; ok {
		rep.EstMS = rc.TotalTime()
	}
	r.walk(plan, "mediator", pc, prof, rep)

	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range rep.Obs {
		o := &rep.Obs[i]
		if o.Excluded {
			continue
		}
		r.scope(r.cards, o.Scope).Add(o.QRows)
		r.scope(r.times, o.Scope).Add(o.QMS)
	}
	return rep
}

func (r *Recorder) walk(n *algebra.Node, site string, pc *core.PlanCost, prof *Profile, rep *Report) {
	if n.Kind == algebra.OpSubmit || n.Kind == algebra.OpScan {
		if n.Wrapper != "" {
			site = n.Wrapper
		}
	}
	act, okA := prof.ByNode[n]
	est, okE := pc.ByNode[n]
	if okA && okE {
		o := Obs{
			Node:     n,
			Site:     site,
			Scope:    site + "/" + n.Kind.String(),
			EstRows:  est.Var("CountObject", 0),
			ActRows:  float64(act.RowsOut),
			ActIn:    float64(act.RowsIn),
			EstMS:    est.TotalTime(),
			ActMS:    act.SubtreeMS,
			OwnMS:    act.OwnMS,
			Bytes:    act.Bytes,
			Excluded: act.Excluded,
		}
		o.QRows = QError(o.EstRows, o.ActRows, 1)
		o.QMS = QError(o.EstMS, o.ActMS, timeFloor)
		rep.Obs = append(rep.Obs, o)
	}
	for _, c := range n.Children {
		r.walk(c, site, pc, prof, rep)
	}
}

func (r *Recorder) scope(m map[string]*Accumulator, key string) *Accumulator {
	a, ok := m[key]
	if !ok {
		a = NewAccumulator(r.window)
		m[key] = a
	}
	return a
}

// ScopeStats is a point-in-time view of one scope's q-error accumulators.
type ScopeStats struct {
	Scope                        string
	Count                        int64
	CardMedian, CardP95, CardMax float64
	TimeMedian, TimeP95, TimeMax float64
}

// Scopes returns the tracked scopes' statistics, sorted by scope name.
func (r *Recorder) Scopes() []ScopeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ScopeStats, 0, len(r.cards))
	for key, c := range r.cards {
		s := ScopeStats{
			Scope:      key,
			Count:      c.Count(),
			CardMedian: c.Median(),
			CardP95:    c.Quantile(0.95),
			CardMax:    c.Max(),
		}
		if t, ok := r.times[key]; ok {
			s.TimeMedian, s.TimeP95, s.TimeMax = t.Median(), t.Quantile(0.95), t.Max()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}

// Summary renders the per-scope q-error table for diagnostics (the
// discoctl \feedback view).
func (r *Recorder) Summary() string {
	scopes := r.Scopes()
	if len(scopes) == 0 {
		return "feedback: no executions observed yet\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %6s  %24s  %24s\n", "scope", "n", "q(card) med/p95/max", "q(time) med/p95/max")
	for _, s := range scopes {
		fmt.Fprintf(&b, "%-28s %6d  %7.2f %7.2f %8.2f  %7.2f %7.2f %8.2f\n",
			s.Scope, s.Count, s.CardMedian, s.CardP95, s.CardMax,
			s.TimeMedian, s.TimeP95, s.TimeMax)
	}
	return b.String()
}

// scopeStates snapshots every accumulator (cards and times are stored
// under "c " / "t " prefixed keys of one map to keep the snapshot flat).
func (r *Recorder) scopeStates() map[string]ScopeState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]ScopeState, len(r.cards)+len(r.times))
	for k, a := range r.cards {
		out["c "+k] = a.state()
	}
	for k, a := range r.times {
		out["t "+k] = a.state()
	}
	return out
}

// restoreScopes loads accumulator states from a snapshot.
func (r *Recorder) restoreScopes(scopes map[string]ScopeState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, s := range scopes {
		kind, key, ok := strings.Cut(k, " ")
		if !ok || key == "" {
			continue
		}
		switch kind {
		case "c":
			r.scope(r.cards, key).restore(s)
		case "t":
			r.scope(r.times, key).restore(s)
		}
	}
}
