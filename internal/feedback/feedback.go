// Package feedback closes the loop from actual execution back into the
// mediator's cost model. The paper's wrappers export statistics and cost
// rules once, at registration time (§2.4), so the blended model silently
// drifts as sources grow and change. This subsystem measures every
// executed plan (the engine attaches a Profile of per-operator actuals to
// each Result), joins the actuals against the estimator's per-node
// predictions (Recorder), and feeds bounded, exponentially decayed
// corrections back into the catalog statistics (Adjuster): a collection's
// extent from selection-free submits, an attribute's distinct count from
// mediator-side equality selections. A Store
// snapshots the learned corrections so a daemon survives restarts without
// relearning.
package feedback

import (
	"math"

	"disco/internal/algebra"
)

// OpActual is the measured execution record of one plan operator: what
// the operator really did, against which the estimator's predictions are
// judged.
type OpActual struct {
	// RowsOut is the operator's output cardinality.
	RowsOut int64
	// RowsIn is the number of rows consumed from the operator's inputs
	// (for a submit: the rows the wrapper delivered across the boundary).
	RowsIn int64
	// OwnMS is the virtual-clock time charged by this operator itself,
	// excluding its children's subtrees.
	OwnMS float64
	// SubtreeMS is the cumulative virtual-clock time of the whole subtree
	// rooted here — directly comparable to the estimator's TotalTime.
	SubtreeMS float64
	// Wrapper names the executing source for submit and scan nodes.
	Wrapper string
	// RoundTrips counts wrapper round-trips performed by a submit (1 per
	// attempted boundary crossing; 0 when the wrapper was known dead and
	// the transport was never touched).
	RoundTrips int
	// Bytes is the result volume a submit shipped back to the mediator.
	Bytes int64
	// Excluded marks a submit whose wrapper was unavailable: the subtree
	// contributed no rows and the answer is partial. Profiles from
	// degraded runs record these explicitly rather than staying empty.
	Excluded bool
}

// Profile is the per-operator execution record of one plan run, keyed by
// the identity of the executed plan's nodes — the same pointers the
// optimizer's PlanCost.ByNode uses, so predictions and actuals join
// without any tree matching.
type Profile struct {
	ByNode    map[*algebra.Node]*OpActual
	ElapsedMS float64
	// Partial mirrors engine.Result.Partial: at least one wrapper was
	// excluded from the answer.
	Partial bool
}

// NewProfile returns an empty profile ready for recording.
func NewProfile() *Profile {
	return &Profile{ByNode: make(map[*algebra.Node]*OpActual)}
}

// Actual returns the recorded actuals of a plan node.
func (p *Profile) Actual(n *algebra.Node) (*OpActual, bool) {
	if p == nil {
		return nil, false
	}
	a, ok := p.ByNode[n]
	return a, ok
}

// Len reports the number of recorded operators.
func (p *Profile) Len() int {
	if p == nil {
		return 0
	}
	return len(p.ByNode)
}

// QError is the symmetric estimation-error ratio max(est/act, act/est),
// the standard cardinality-estimation quality metric: 1 is a perfect
// estimate, q both over- and underestimates on the same scale. Values
// below floor are clamped up so empty results do not divide by zero
// (cardinalities use floor 1 — "off by less than one object" is perfect).
func QError(est, act, floor float64) float64 {
	if floor <= 0 {
		floor = 1
	}
	if est < floor || math.IsNaN(est) {
		est = floor
	}
	if act < floor || math.IsNaN(act) {
		act = floor
	}
	if est > act {
		return est / act
	}
	return act / est
}

// timeFloor is the q-error floor for virtual times: below a hundredth of
// a millisecond the clock charges are quantization noise, not signal.
const timeFloor = 0.01

// isBad reports a value no statistic should absorb.
func isBad(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
