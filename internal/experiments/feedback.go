package experiments

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/algebra"
	"disco/internal/filestore"
	"disco/internal/mediator"
	"disco/internal/objstore"
	"disco/internal/relstore"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// FeedbackRound summarizes one pass of the workload through the
// self-tuning loop.
type FeedbackRound struct {
	Round int
	// Median/Max cardinality q-error and median time q-error over every
	// observed operator of the round.
	MedianCardQ float64
	MaxCardQ    float64
	MedianTimeQ float64
	// ProbePlan is the join shape the optimizer picks for the probe
	// query at the START of the round (before the round's corrections).
	ProbePlan string
}

// FeedbackResult holds the convergence study: a federation registered
// with extents that are wrong by 10x in both directions, repaired by
// nothing but executing an ordinary workload.
type FeedbackResult struct {
	Rounds []FeedbackRound
	// TruthPlan is the probe plan an identically built mediator with
	// correctly registered extents chooses — the target join order.
	TruthPlan string
	// FinalPlan is the probe plan after the last round of feedback.
	FinalPlan string
	// PlanFlipped reports that feedback moved the probe away from the
	// initially chosen (mis-registered) join order to the truth plan.
	PlanFlipped bool
	// ControlStable reports that the feedback-off control saw
	// bit-identical plans and estimates across the same workload.
	ControlStable bool
	// Extents compares claimed/corrected/true object counts.
	Extents []ExtentRow
}

// ExtentRow is one collection's registration error and repair.
type ExtentRow struct {
	Collection string
	Claimed    int64
	Corrected  int64
	True       int64
}

// Improvement is the first-round/last-round median cardinality q-error
// ratio (how many times the typical estimate got better).
func (r *FeedbackResult) Improvement() float64 {
	if len(r.Rounds) == 0 || r.Rounds[len(r.Rounds)-1].MedianCardQ == 0 {
		return 0
	}
	return r.Rounds[0].MedianCardQ / r.Rounds[len(r.Rounds)-1].MedianCardQ
}

// Table renders the study.
func (r *FeedbackResult) Table() string {
	var b strings.Builder
	b.WriteString("Execution feedback — extents mis-registered 10x, repaired by running the workload\n")
	fmt.Fprintf(&b, "%-6s %14s %12s %14s  %s\n",
		"round", "median q(card)", "max q(card)", "median q(time)", "probe join order")
	for _, row := range r.Rounds {
		fmt.Fprintf(&b, "%-6d %14.2f %12.2f %14.2f  %s\n",
			row.Round, row.MedianCardQ, row.MaxCardQ, row.MedianTimeQ, row.ProbePlan)
	}
	fmt.Fprintf(&b, "\ntruth plan (correct registration): %s\n", r.TruthPlan)
	fmt.Fprintf(&b, "plan flipped to truth: %v   median q(card) improvement: %.1fx   control stable: %v\n",
		r.PlanFlipped, r.Improvement(), r.ControlStable)
	b.WriteString("\nextent repair (objects):\n")
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s\n", "collection", "claimed", "corrected", "true")
	for _, e := range r.Extents {
		fmt.Fprintf(&b, "  %-12s %10d %10d %10d\n", e.Collection, e.Claimed, e.Corrected, e.True)
	}
	return b.String()
}

// True cardinalities of the feedback federation; the registration claims
// are each off by feedbackSkew in one direction or the other.
const (
	fbEmployees    = 1000
	fbDepts        = 10
	fbNotes        = 2000
	feedbackSkew   = 10
	feedbackRounds = 8
)

// feedbackProbe is the 3-relation join whose cheapest order depends on
// knowing which side is big: with Notes under-claimed 10x small the
// optimizer drags all notes up early; corrected, it joins the tiny Dept
// side first.
const feedbackProbe = `SELECT name, dname, text FROM Employee, Dept, Notes ` +
	`WHERE dept = dno AND Employee.id = Notes.emp AND salary < 1100`

// feedbackWorkload is the ordinary query mix whose execution drives the
// corrections; no query is special-cased for tuning.
// Selective queries and the probe run first (they measure the damage),
// the full scans last (they are the extent-correcting observations): a
// round's numbers reflect the state its predecessor left behind.
var feedbackWorkload = []string{
	`SELECT name FROM Employee WHERE salary < 1100`,
	`SELECT name FROM Employee WHERE dept = 3`,
	`SELECT emp FROM Notes WHERE emp < 500`,
	feedbackProbe,
	`SELECT name FROM Employee`,
	`SELECT emp FROM Notes`,
	`SELECT dname FROM Dept`,
}

// buildFeedbackFederation assembles the Employee/Dept/Notes federation.
// With misregister, the catalog's extents are skewed 10x after
// registration — Employee and Dept inflated, Notes deflated — the way a
// wrapper with stale statistics would mis-report them.
func buildFeedbackFederation(cfg mediator.Config, misregister bool) (*mediator.Mediator, error) {
	m, err := mediator.New(cfg)
	if err != nil {
		return nil, err
	}
	ostore := objstore.Open(objstore.DefaultConfig())
	emp, err := ostore.CreateCollection("Employee", types.NewSchema(
		types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "name", Collection: "Employee", Type: types.KindString},
		types.Field{Name: "dept", Collection: "Employee", Type: types.KindInt},
		types.Field{Name: "salary", Collection: "Employee", Type: types.KindInt},
	), 64)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fbEmployees; i++ {
		emp.Insert(types.Row{types.Int(int64(i)),
			types.Str([]string{"ana", "bob", "cyd"}[i%3]),
			types.Int(int64(i % fbDepts)), types.Int(int64(1000 + i%500))})
	}
	if err := emp.CreateIndex("id", true); err != nil {
		return nil, err
	}

	rstore := relstore.Open(relstore.DefaultConfig())
	dept, err := rstore.CreateTable("Dept", types.NewSchema(
		types.Field{Name: "dno", Collection: "Dept", Type: types.KindInt},
		types.Field{Name: "dname", Collection: "Dept", Type: types.KindString},
	), 48)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fbDepts; i++ {
		dept.Insert(types.Row{types.Int(int64(i)), types.Str("dept" + string(rune('A'+i)))})
	}
	dept.CreateHashIndex("dno")

	fstore := filestore.Open(filestore.DefaultConfig())
	notes, err := fstore.CreateFile("Notes", types.NewSchema(
		types.Field{Name: "emp", Collection: "Notes", Type: types.KindInt},
		types.Field{Name: "text", Collection: "Notes", Type: types.KindString},
	))
	if err != nil {
		return nil, err
	}
	for i := 0; i < fbNotes; i++ {
		notes.Append(types.Row{types.Int(int64(i * 7 % fbEmployees)), types.Str("note")})
	}

	for _, w := range []wrapper.Wrapper{
		wrapper.NewObjWrapper("obj1", ostore),
		wrapper.NewRelWrapper("rel1", rstore),
		wrapper.NewFileWrapper("files", fstore),
	} {
		if err := m.Register(w); err != nil {
			return nil, err
		}
	}

	if misregister {
		skewExtent(m, "obj1", "Employee", feedbackSkew)
		skewExtent(m, "rel1", "Dept", feedbackSkew)
		skewExtent(m, "files", "Notes", 1.0/feedbackSkew)
	}
	return m, nil
}

// skewExtent rewrites one collection's registered extent by the given
// factor, as if the wrapper had claimed stale statistics.
func skewExtent(m *mediator.Mediator, wrapperName, coll string, factor float64) {
	e, ok := m.Catalog.Entry(wrapperName)
	if !ok {
		return
	}
	info := e.Collections[coll]
	if info == nil || !info.HasExtent {
		return
	}
	perObj := info.Extent.TotalSize / info.Extent.CountObject
	n := int64(float64(info.Extent.CountObject) * factor)
	if n < 1 {
		n = 1
	}
	info.Extent.CountObject = n
	info.Extent.TotalSize = n * perObj
}

// joinShape renders a plan as its join order over base collections,
// e.g. ((Employee*Dept)*Notes). Non-join operators pass through.
func joinShape(n *algebra.Node) string {
	switch n.Kind {
	case algebra.OpScan:
		return n.Collection
	case algebra.OpJoin:
		return "(" + joinShape(n.Children[0]) + "*" + joinShape(n.Children[1]) + ")"
	default:
		if len(n.Children) == 0 {
			return n.Kind.String()
		}
		return joinShape(n.Children[0])
	}
}

// probeShape prepares the probe and reports its join order.
func probeShape(m *mediator.Mediator) (string, error) {
	p, err := m.Prepare(feedbackProbe)
	if err != nil {
		return "", err
	}
	return joinShape(p.Plan), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// feedbackConfig is the experiment's mediator configuration: history off,
// so the only estimate-repair channel under study is the feedback loop
// (history's query-scope rules would otherwise mask it for the repeated
// workload).
func feedbackConfig(on bool) mediator.Config {
	cfg := mediator.DefaultConfig()
	cfg.RecordHistory = false
	cfg.Feedback = on
	return cfg
}

// Feedback runs the convergence study.
func Feedback() (*FeedbackResult, error) {
	// Truth arm: correct registration, feedback irrelevant.
	truth, err := buildFeedbackFederation(feedbackConfig(false), false)
	if err != nil {
		return nil, err
	}
	truthPlan, err := probeShape(truth)
	if err != nil {
		return nil, err
	}

	// Study arm: mis-registered, feedback on.
	m, err := buildFeedbackFederation(feedbackConfig(true), true)
	if err != nil {
		return nil, err
	}
	out := &FeedbackResult{TruthPlan: truthPlan}
	for round := 1; round <= feedbackRounds; round++ {
		shape, err := probeShape(m)
		if err != nil {
			return nil, err
		}
		var cardQ, timeQ []float64
		for _, sql := range feedbackWorkload {
			if _, err := m.Query(sql); err != nil {
				return nil, fmt.Errorf("round %d %s: %w", round, sql, err)
			}
			if rep := m.LastReport; rep != nil {
				for _, o := range rep.Obs {
					if o.Excluded {
						continue
					}
					cardQ = append(cardQ, o.QRows)
					timeQ = append(timeQ, o.QMS)
				}
			}
		}
		out.Rounds = append(out.Rounds, FeedbackRound{
			Round:       round,
			MedianCardQ: median(cardQ),
			MaxCardQ:    maxF(cardQ),
			MedianTimeQ: median(timeQ),
			ProbePlan:   shape,
		})
	}
	final, err := probeShape(m)
	if err != nil {
		return nil, err
	}
	out.FinalPlan = final
	out.PlanFlipped = final == truthPlan && len(out.Rounds) > 0 && out.Rounds[0].ProbePlan != truthPlan

	for _, ext := range []struct {
		wrapper, coll string
		truth         int64
	}{
		{"obj1", "Employee", fbEmployees},
		{"rel1", "Dept", fbDepts},
		{"files", "Notes", fbNotes},
	} {
		corrected, _ := m.Catalog.Extent(ext.wrapper, ext.coll)
		claimed := ext.truth * feedbackSkew
		if ext.coll == "Notes" {
			claimed = ext.truth / feedbackSkew
		}
		out.Extents = append(out.Extents, ExtentRow{
			Collection: ext.coll, Claimed: claimed,
			Corrected: corrected.CountObject, True: ext.truth,
		})
	}

	// Control arm: identically mis-registered, feedback off — running
	// the same workload must not move plans or estimates at all.
	ctl, err := buildFeedbackFederation(feedbackConfig(false), true)
	if err != nil {
		return nil, err
	}
	before, err := ctl.Explain(feedbackProbe)
	if err != nil {
		return nil, err
	}
	out.ControlStable = true
	for round := 1; round <= feedbackRounds; round++ {
		for _, sql := range feedbackWorkload {
			if _, err := ctl.Query(sql); err != nil {
				return nil, err
			}
		}
		after, err := ctl.Explain(feedbackProbe)
		if err != nil {
			return nil, err
		}
		if after != before {
			out.ControlStable = false
		}
	}
	return out, nil
}

func maxF(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
