package experiments

import (
	"strings"
	"testing"

	"disco/internal/oo7"
)

// smallScale keeps experiment tests fast while preserving the page/object
// ratio of the paper layout (70 objects per page).
func smallScale() oo7.Scale {
	s := oo7.PaperScale()
	s.AtomicParts = 14000 // 200 pages
	return s
}

func TestFigure12Shape(t *testing.T) {
	res, err := Figure12(smallScale(), nil, []float64{0.05, 0.1, 0.2, 0.4, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		// The measured curve is monotone increasing.
		if i > 0 && row.ExperimentS <= res.Rows[i-1].ExperimentS {
			t.Errorf("experiment not increasing at %v", row.Selectivity)
		}
		// The calibrated line underestimates the midrange measurement
		// (the paper's central observation).
		if row.Selectivity <= 0.4 && row.CalibrationS >= row.ExperimentS {
			t.Errorf("sel %.2f: calibration %.1f should underestimate experiment %.1f",
				row.Selectivity, row.CalibrationS, row.ExperimentS)
		}
		// The Yao estimate tracks the measurement within a few percent.
		if rel := relErr(row.YaoS, row.ExperimentS); rel > 0.05 {
			t.Errorf("sel %.2f: yao estimate off by %.1f%% (%.1f vs %.1f)",
				row.Selectivity, 100*rel, row.YaoS, row.ExperimentS)
		}
	}
	// E2: the blended estimator must beat calibration decisively.
	if res.RMSYao >= res.RMSCalib/2 {
		t.Errorf("RMS yao %.3f should be well below RMS calib %.3f", res.RMSYao, res.RMSCalib)
	}
	tbl := res.Table()
	for _, want := range []string{"Figure 12", "calibration", "yao", "E2"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFigure12Concavity(t *testing.T) {
	// The measured IO component makes the curve concave: the increment
	// from 0.05 to 0.15 exceeds the increment from 0.55 to 0.65 once the
	// per-object tail is subtracted. Cheaper check: experiment minus the
	// linear output term is concave.
	res, err := Figure12(smallScale(), nil, []float64{0.05, 0.15, 0.55, 0.65})
	if err != nil {
		t.Fatal(err)
	}
	perObj := 9.012 / 1000 // output + cpu + probe, seconds
	io := func(i int) float64 {
		return res.Rows[i].ExperimentS - float64(res.Rows[i].K)*perObj
	}
	dEarly := io(1) - io(0)
	dLate := io(3) - io(2)
	if dEarly <= dLate {
		t.Errorf("IO component should be concave: early delta %.2f, late delta %.2f", dEarly, dLate)
	}
}

func TestPlanQualityBlendedWins(t *testing.T) {
	scale := smallScale()
	res, err := PlanQuality(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// For the co-located join, the blended model's chosen plan must
	// execute at least as fast as the generic model's.
	gen, ok1 := res.ActualOf("colocated-join (parts-docs)", "generic")
	ble, ok2 := res.ActualOf("colocated-join (parts-docs)", "blended")
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	if ble > gen*1.01 {
		t.Errorf("blended actual %.2fs should not exceed generic actual %.2fs", ble, gen)
	}
	if !strings.Contains(res.Table(), "E3") {
		t.Error("table header")
	}
}

func TestRuleOverheadGrowsSlowly(t *testing.T) {
	res, err := RuleOverhead([]int{0, 100, 1000}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Even with 1000 rules, estimation stays in the low-millisecond range
	// (the paper's requirement that overriding "not induce significant
	// workload"). The bound is generous because this is wall-clock time
	// and the suite also runs under the race detector's ~10x slowdown.
	if res.Rows[2].EstimateMicros > 50_000 {
		t.Errorf("estimation with 1000 rules = %.0f µs", res.Rows[2].EstimateMicros)
	}
	if res.BytecodeNS <= 0 || res.InterpNS <= 0 {
		t.Error("evaluation benchmarks missing")
	}
	if !strings.Contains(res.Table(), "bytecode") {
		t.Error("table")
	}
}

func TestHistoryReducesError(t *testing.T) {
	res, err := History(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.RepeatErrPct > row.FirstErrPct+0.5 {
			t.Errorf("%s: repeat error %.1f%% should not exceed first error %.1f%%",
				row.Query, row.RepeatErrPct, row.FirstErrPct)
		}
		if row.RepeatErrPct > 10 {
			t.Errorf("%s: repeat error %.1f%% should be small", row.Query, row.RepeatErrPct)
		}
	}
	if !strings.Contains(res.Table(), "E5") {
		t.Error("table")
	}
}

func TestPruningSavesWork(t *testing.T) {
	res, err := Pruning()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	full, req, cut := res.Rows[0], res.Rows[1], res.Rows[2]
	if req.FormulaEvals >= full.FormulaEvals {
		t.Errorf("required-vars evals %d should be below full %d", req.FormulaEvals, full.FormulaEvals)
	}
	if cut.NodesVisited >= full.NodesVisited {
		t.Errorf("constant-rule visits %d should be below full %d", cut.NodesVisited, full.NodesVisited)
	}
	if !res.BudgetAborted {
		t.Error("branch-and-bound should abort over-budget plans")
	}
}

func TestJoinCrossover(t *testing.T) {
	res, err := JoinCrossover([]int64{200, 2000, 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// With an index on the inner join attribute, the index join should
	// win at large inner cardinalities (it avoids the inner scan).
	last := res.Rows[len(res.Rows)-1]
	if last.Winner != "index" {
		t.Errorf("winner at %d = %s, want index\n%s", last.InnerCard, last.Winner, res.Table())
	}
	// Sort-merge must beat nested loops once both inputs are large.
	if last.SortMergeS >= last.NestedS {
		t.Errorf("sort-merge %.2f should beat nested-loop %.2f at scale", last.SortMergeS, last.NestedS)
	}
}

func TestClusteringExperiment(t *testing.T) {
	res, err := Clustering(smallScale(), []float64{0.05, 0.2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Clustered placement touches only a linear fraction of pages:
		// far cheaper than the Yao-scattered unclustered scan at low
		// selectivity.
		if row.Selectivity <= 0.2 && row.ClusteredS >= row.UnclusteredS {
			t.Errorf("sel %.2f: clustered %.1f should beat unclustered %.1f",
				row.Selectivity, row.ClusteredS, row.UnclusteredS)
		}
		// The clustering-aware wrapper rule tracks both placements.
		if e := relErr(row.EstUnclusteredS, row.UnclusteredS); e > 0.05 {
			t.Errorf("sel %.2f: unclustered estimate off by %.1f%%", row.Selectivity, 100*e)
		}
		if e := relErr(row.EstClusteredS, row.ClusteredS); e > 0.05 {
			t.Errorf("sel %.2f: clustered estimate off by %.1f%%", row.Selectivity, 100*e)
		}
	}
	// The line calibrated on the unclustered store must be much worse on
	// the clustered one than the clustering-aware rule.
	if res.RMSBlendedClustered >= res.RMSCalibOnClustered/2 {
		t.Errorf("blended RMS %.3f should be well below calibrated RMS %.3f",
			res.RMSBlendedClustered, res.RMSCalibOnClustered)
	}
}

func TestOO7SuiteAccuracy(t *testing.T) {
	res, err := OO7Suite(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The blended model tracks the whole suite within ~15%.
	if res.MaxPct > 15 {
		t.Errorf("max error %.1f%% too high\n%s", res.MaxPct, res.Table())
	}
	if res.MeanPct > 5 {
		t.Errorf("mean error %.1f%% too high", res.MeanPct)
	}
	for _, row := range res.Rows {
		if row.ActualS <= 0 {
			t.Errorf("%s: no measured time", row.Query)
		}
	}
}

func TestResilienceMatrix(t *testing.T) {
	res, err := Resilience(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]ResilienceRow, len(res.Rows))
	for _, row := range res.Rows {
		rows[row.Scenario] = row
		if row.Answered+row.Partial != row.Queries {
			t.Errorf("%s: %d answered + %d partial != %d queries",
				row.Scenario, row.Answered, row.Partial, row.Queries)
		}
	}
	base, ok := rows["baseline"]
	if !ok {
		t.Fatal("no baseline scenario")
	}
	if base.Partial != 0 || base.Retries != 0 || base.Redials != 0 {
		t.Errorf("baseline should need no healing: %+v", base)
	}
	if r := rows["drop"]; r.Redials == 0 || r.Partial != 0 {
		t.Errorf("drop scenario should redial and still answer fully: %+v", r)
	}
	if r := rows["error"]; r.Retries == 0 || r.Partial != 0 {
		t.Errorf("error scenario should retry and still answer fully: %+v", r)
	}
	if r := rows["delay"]; r.VirtualMS <= base.VirtualMS {
		t.Errorf("delay scenario should cost more virtual time than baseline (%v vs %v)",
			r.VirtualMS, base.VirtualMS)
	}
	if r := rows["outage"]; r.Partial == 0 {
		t.Errorf("outage scenario should degrade to partial answers: %+v", r)
	}
}

func TestFeedbackConvergence(t *testing.T) {
	r, err := Feedback()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rounds) < 2 {
		t.Fatalf("rounds = %d", len(r.Rounds))
	}
	first, last := r.Rounds[0], r.Rounds[len(r.Rounds)-1]
	// The typical cardinality estimate must improve at least 5x, and
	// strictly: the loop may not make things worse between rounds.
	if imp := r.Improvement(); imp < 5 {
		t.Errorf("median q(card) improvement = %.2fx, want >= 5x\n%s", imp, r.Table())
	}
	if last.MedianCardQ >= first.MedianCardQ {
		t.Errorf("median q(card) did not decrease: %.2f -> %.2f", first.MedianCardQ, last.MedianCardQ)
	}
	// The probe's join order must flip to the one a correctly registered
	// mediator chooses, after one round of feedback, and stay there.
	if !r.PlanFlipped {
		t.Errorf("probe plan never flipped: first %s, final %s, truth %s",
			first.ProbePlan, r.FinalPlan, r.TruthPlan)
	}
	for _, round := range r.Rounds[1:] {
		if round.ProbePlan != r.TruthPlan {
			t.Errorf("round %d probes %s, want the truth plan %s from round 2 on\n%s",
				round.Round, round.ProbePlan, r.TruthPlan, r.Table())
		}
	}
	// With feedback off, the identical workload must leave plans and
	// estimates bit-identical.
	if !r.ControlStable {
		t.Error("feedback-off control saw its plans or estimates drift")
	}
	// Extents end near the truth.
	for _, e := range r.Extents {
		lo, hi := e.True*8/10, e.True*12/10
		if e.Corrected < lo || e.Corrected > hi {
			t.Errorf("%s: corrected extent %d outside [%d, %d] (claimed %d, true %d)",
				e.Collection, e.Corrected, lo, hi, e.Claimed, e.True)
		}
	}
}

// ActualOf returns the executed time of a (query, model) pair.
func (r *PlanQualityResult) ActualOf(query, model string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Query == query && row.Model == model {
			return row.ActualS, true
		}
	}
	return 0, false
}
