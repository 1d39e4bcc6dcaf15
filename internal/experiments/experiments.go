// Package experiments regenerates every figure and table of the paper's
// evaluation (§5) plus the ablations listed in DESIGN.md §3. Each
// experiment builds its own deployment and reads each execution's own
// metered virtual time, so runs are deterministic and independent. cmd/experiments prints the tables;
// the root bench suite asserts their shapes.
package experiments

import (
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/calibration"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// figure13Rule is the paper's Figure 13 cost rule, verbatim modulo
// syntax: the Yao-based estimate for an index selection on the id
// attribute, including the per-object output cost (the paper's
// measurements include result delivery).
const figure13Rule = `
let PageSize = 4096;
let IO = 25;
let Output = 9;

select(Collection, id < V) {
  let CountPage = Collection.TotalSize / PageSize;
  CountObject = Collection.CountObject * (V - Collection.id.Min) / (Collection.id.Max - Collection.id.Min);
  TotalSize   = CountObject * Collection.ObjectSize;
  TotalTime   = IO * CountPage * (1 - exp(-1 * (CountObject / CountPage)))
              + CountObject * Output;
}
`

// Figure12Row is one point of the Figure 12 series. Times are in seconds,
// matching the paper's axis.
type Figure12Row struct {
	Selectivity  float64
	K            int64 // objects selected
	ExperimentS  float64
	CalibrationS float64
	YaoS         float64
}

// Figure12Result is the full reproduction of Figure 12 plus the error
// summary of experiment E2.
type Figure12Result struct {
	Rows     []Figure12Row
	CalibFit calibration.LinearFit
	// E2: relative-error aggregates of the two estimators against the
	// measurement.
	RMSCalib, RMSYao float64
	MaxCalib, MaxYao float64
}

// figure12Deployment bundles the pieces several experiments reuse.
type figure12Deployment struct {
	store *objstore.Store
	wrap  *wrapper.ObjWrapper
	cat   *catalog.Catalog
	scale oo7.Scale
}

func newOO7Deployment(scale oo7.Scale, bufferPages int) (*figure12Deployment, error) {
	cfg := objstore.DefaultConfig()
	if bufferPages > 0 {
		cfg.BufferPages = bufferPages
	}
	store := objstore.Open(cfg)
	if err := oo7.Generate(store, scale, 1); err != nil {
		return nil, err
	}
	w := wrapper.NewObjWrapper("oo7", store)
	cat := catalog.New()
	if err := cat.Register(w); err != nil {
		return nil, err
	}
	return &figure12Deployment{store: store, wrap: w, cat: cat, scale: scale}, nil
}

func (d *figure12Deployment) rangePlan(sel float64) (*algebra.Node, error) {
	plan := oo7.RangeOnID("oo7", d.scale, sel)
	if err := algebra.Resolve(plan, d.cat); err != nil {
		return nil, err
	}
	return plan, nil
}

// measure executes the access path cold and returns (k, seconds).
func (d *figure12Deployment) measure(sel float64) (int64, float64, error) {
	plan, err := d.rangePlan(sel)
	if err != nil {
		return 0, 0, err
	}
	d.store.ResetBuffer()
	res, err := d.wrap.Execute(plan)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(res.Rows)), res.VirtualMS / 1000, nil
}

// Figure12 reproduces the paper's index-scan experiment: the measured
// response time of an unclustered index scan over AtomicParts versus the
// calibrated linear estimate and the Yao-formula estimate, across the
// selectivity axis.
//
// calibSels are the probe selectivities of the calibrating procedure
// (tiny and full queries, following [DKS92]'s calibrating database); sels
// is the figure's x axis.
func Figure12(scale oo7.Scale, calibSels, sels []float64) (*Figure12Result, error) {
	if len(calibSels) == 0 {
		calibSels = []float64{0.002, 0.005, 0.95, 1.0}
	}
	if len(sels) == 0 {
		for s := 0.05; s <= 0.7001; s += 0.05 {
			sels = append(sels, s)
		}
	}
	// Buffer must hold the collection so distinct-page fetches follow
	// Yao exactly (the paper's server had the same property at 1000
	// pages).
	pages := scale.AtomicParts/70 + 64
	d, err := newOO7Deployment(scale, pages)
	if err != nil {
		return nil, err
	}

	// Calibration baseline: probe, then fit TotalTime = a + b*k.
	samples, err := calibration.ProbeIndexScan(d.wrap, oo7.AtomicParts, "id",
		0, int64(scale.AtomicParts), calibSels)
	if err != nil {
		return nil, err
	}
	fit, err := calibration.CalibrateIndexScan(samples)
	if err != nil {
		return nil, err
	}

	// Blended estimator: the mediator's generic model leveraged with the
	// paper's Figure 13 rule.
	reg, err := core.NewDefaultRegistry()
	if err != nil {
		return nil, err
	}
	file, err := costlang.Parse(figure13Rule)
	if err != nil {
		return nil, err
	}
	if err := reg.IntegrateWrapper("oo7", file, d.cat); err != nil {
		return nil, err
	}
	est := core.NewEstimator(reg, d.cat, core.UniformNet{})

	out := &Figure12Result{CalibFit: fit}
	var exps, calibs, yaos []float64
	for _, sel := range sels {
		k, expS, err := d.measure(sel)
		if err != nil {
			return nil, err
		}
		plan, err := d.rangePlan(sel)
		if err != nil {
			return nil, err
		}
		pc, err := est.Estimate(plan)
		if err != nil {
			return nil, err
		}
		row := Figure12Row{
			Selectivity:  sel,
			K:            k,
			ExperimentS:  expS,
			CalibrationS: fit.Predict(float64(k)) / 1000,
			YaoS:         pc.Root.TotalTime() / 1000,
		}
		out.Rows = append(out.Rows, row)
		exps = append(exps, row.ExperimentS)
		calibs = append(calibs, row.CalibrationS)
		yaos = append(yaos, row.YaoS)
	}
	if out.RMSCalib, err = calibration.RMSRelativeError(calibs, exps); err != nil {
		return nil, err
	}
	if out.RMSYao, err = calibration.RMSRelativeError(yaos, exps); err != nil {
		return nil, err
	}
	for i := range exps {
		if e := calibration.RelativeError(calibs[i], exps[i]); e > out.MaxCalib {
			out.MaxCalib = e
		}
		if e := calibration.RelativeError(yaos[i], exps[i]); e > out.MaxYao {
			out.MaxYao = e
		}
	}
	return out, nil
}

// Table renders the figure as the text table cmd/experiments prints.
func (r *Figure12Result) Table() string {
	var b strings.Builder
	b.WriteString("Figure 12 — OO7 index scan: response time vs. selectivity (seconds)\n")
	fmt.Fprintf(&b, "calibrated line: %s\n", r.CalibFit)
	fmt.Fprintf(&b, "%-12s %10s %14s %14s %12s\n", "selectivity", "objects", "experiment", "calibration", "yao")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12.2f %10d %14.1f %14.1f %12.1f\n",
			row.Selectivity, row.K, row.ExperimentS, row.CalibrationS, row.YaoS)
	}
	fmt.Fprintf(&b, "\nE2 — estimator error vs. measurement: RMS calib %.1f%%  max calib %.1f%%  |  RMS yao %.2f%%  max yao %.2f%%\n",
		100*r.RMSCalib, 100*r.MaxCalib, 100*r.RMSYao, 100*r.MaxYao)
	return b.String()
}

// PlanQualityRow is one (query, model) outcome of experiment E3.
type PlanQualityRow struct {
	Query      string
	Model      string // "generic" or "blended"
	EstimatedS float64
	ActualS    float64
	PlanRoot   string
}

// PlanQualityResult holds the E3 table.
type PlanQualityResult struct {
	Rows []PlanQualityRow
}

// Table renders E3.
func (r *PlanQualityResult) Table() string {
	var b strings.Builder
	b.WriteString("E3 — plan quality: chosen plan under each cost model (seconds)\n")
	fmt.Fprintf(&b, "%-34s %-9s %12s %12s  %s\n", "query", "model", "estimated", "actual", "plan root")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %-9s %12.2f %12.2f  %s\n",
			row.Query, row.Model, row.EstimatedS, row.ActualS, row.PlanRoot)
	}
	return b.String()
}

// planQualityQueries builds the E3 workload over the OO7 deployment.
func planQualityQueries() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"colocated-join (parts-docs)",
			`SELECT title FROM AtomicParts, Documents WHERE docId = Documents.id AND AtomicParts.id < 700`},
		{"range-select (buildDate 10%)",
			`SELECT AtomicParts.id FROM AtomicParts WHERE buildDate < 100`},
		{"point-select (id index)",
			`SELECT x, y FROM AtomicParts WHERE AtomicParts.id = 4242`},
	}
}

// PlanQuality runs E3: the same workload optimized and executed under the
// generic-only cost model and under the blended model with wrapper rules.
func PlanQuality(scale oo7.Scale) (*PlanQualityResult, error) {
	out := &PlanQualityResult{}
	for _, model := range []string{"generic", "blended"} {
		med, err := newMediatorOO7(scale, model == "blended")
		if err != nil {
			return nil, err
		}
		for _, q := range planQualityQueries() {
			p, err := med.Prepare(q.sql)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", q.name, model, err)
			}
			med.Wrapperstore().ResetBuffer()
			res, err := med.ExecutePlan(p)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, PlanQualityRow{
				Query:      q.name,
				Model:      model,
				EstimatedS: p.Cost.TotalTime() / 1000,
				ActualS:    res.ElapsedMS / 1000,
				PlanRoot:   strings.TrimSpace(strings.SplitN(p.Plan.String(), "\n", 2)[0]),
			})
		}
	}
	return out, nil
}

// JoinCrossoverRow is one point of experiment E7.
type JoinCrossoverRow struct {
	InnerCard  int64
	NestedS    float64
	SortMergeS float64
	IndexS     float64
	Winner     string
}

// JoinCrossoverResult holds the E7 table.
type JoinCrossoverResult struct {
	OuterCard int64
	Rows      []JoinCrossoverRow
}

// Table renders E7.
func (r *JoinCrossoverResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — generic join-method estimates vs. inner cardinality (outer = %d rows, seconds)\n", r.OuterCard)
	fmt.Fprintf(&b, "%10s %14s %14s %14s  %s\n", "inner", "nested-loop", "sort-merge", "index", "winner")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %14.2f %14.2f %14.2f  %s\n",
			row.InnerCard, row.NestedS, row.SortMergeS, row.IndexS, row.Winner)
	}
	return b.String()
}

// joinRuleVariants isolate one join method each, so their estimates can
// be compared directly. They reuse the generic coefficients.
var joinRuleVariants = map[string]string{
	"nested-loop": `
join(C1, C2, P) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  TotalTime   = C1.TotalTime + C2.TotalTime + C1.CountObject * C2.CountObject * JoinPerPair;
}`,
	"sort-merge": `
join(C1, C2, P) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  TotalTime = C1.TotalTime + C2.TotalTime
            + (C1.CountObject * log2(C1.CountObject + 2) + C2.CountObject * log2(C2.CountObject + 2)) * SortPerObj
            + (C1.CountObject + C2.CountObject) * MergePerObj;
}`,
	"index": `
join(C1, C2, A1 = A2) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  TotalTime   = require(C2.A2.Indexed,
                  C1.TotalTime + C1.CountObject * (IdxProbe + IdxPerObj * max(C2.CountObject / max(C2.A2.CountDistinct, 1), 1)));
}`,
}

// JoinCrossover runs E7: for growing inner cardinalities, estimate the
// co-located join of a fixed filtered outer with the inner under each of
// the generic model's three join methods.
func JoinCrossover(innerCards []int64) (*JoinCrossoverResult, error) {
	if len(innerCards) == 0 {
		innerCards = []int64{200, 2000, 20000, 60000}
	}
	const outerSel = 300
	store := objstore.Open(objstore.DefaultConfig())

	outerSchema := types.NewSchema(
		types.Field{Name: "oid", Collection: "Outer", Type: types.KindInt},
		types.Field{Name: "fk", Collection: "Outer", Type: types.KindInt},
	)
	outer, err := store.CreateCollection("Outer", outerSchema, 32)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3000; i++ {
		outer.Insert(types.Row{types.Int(int64(i)), types.Int(int64(i))})
	}
	if err := outer.CreateIndex("oid", true); err != nil {
		return nil, err
	}

	out := &JoinCrossoverResult{OuterCard: outerSel}
	for _, inner := range innerCards {
		collName := fmt.Sprintf("Inner%d", inner)
		innerSchema := types.NewSchema(
			types.Field{Name: "iid", Collection: collName, Type: types.KindInt},
			types.Field{Name: "payload", Collection: collName, Type: types.KindInt},
		)
		ic, err := store.CreateCollection(collName, innerSchema, 32)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < inner; i++ {
			ic.Insert(types.Row{types.Int(i), types.Int(i * 2)})
		}
		if err := ic.CreateIndex("iid", false); err != nil {
			return nil, err
		}
	}

	w := wrapper.NewObjWrapper("w", store)
	cat := catalog.New()
	if err := cat.Register(w); err != nil {
		return nil, err
	}

	for _, inner := range innerCards {
		collName := fmt.Sprintf("Inner%d", inner)
		plan := algebra.Join(
			algebra.Select(algebra.Scan("w", "Outer"),
				algebra.NewSelPred(algebra.Ref{Collection: "Outer", Attr: "oid"}, stats.CmpLT, types.Int(outerSel))),
			algebra.Scan("w", collName),
			algebra.NewJoinPred(algebra.Ref{Collection: "Outer", Attr: "fk"},
				algebra.Ref{Collection: collName, Attr: "iid"}))
		if err := algebra.Resolve(plan, cat); err != nil {
			return nil, err
		}
		row := JoinCrossoverRow{InnerCard: inner}
		values := map[string]float64{}
		for name, src := range joinRuleVariants {
			reg, err := core.NewDefaultRegistry()
			if err != nil {
				return nil, err
			}
			file, err := costlang.Parse(src)
			if err != nil {
				return nil, err
			}
			// Integrate as wrapper rules so they outrank the generic
			// join rules.
			if err := reg.IntegrateWrapper("w", file, cat); err != nil {
				return nil, err
			}
			est := core.NewEstimator(reg, cat, core.UniformNet{})
			pc, err := est.Estimate(plan.Clone())
			if err != nil {
				return nil, err
			}
			// Re-resolve clones lazily: Clone keeps schemas, fine.
			values[name] = pc.Root.TotalTime() / 1000
		}
		row.NestedS = values["nested-loop"]
		row.SortMergeS = values["sort-merge"]
		row.IndexS = values["index"]
		row.Winner = "nested-loop"
		best := row.NestedS
		if row.SortMergeS < best {
			row.Winner, best = "sort-merge", row.SortMergeS
		}
		if row.IndexS < best {
			row.Winner = "index"
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// newObjWrapper names the deployment's object source uniformly across
// experiments.
func newObjWrapper(store *objstore.Store) *wrapper.ObjWrapper {
	return wrapper.NewObjWrapper("oo7", store)
}

// newCatalogFor registers one wrapper in a fresh catalog; nil on error.
func newCatalogFor(w wrapper.Wrapper) *catalog.Catalog {
	cat := catalog.New()
	if err := cat.Register(w); err != nil {
		return nil
	}
	return cat
}

// wrapSubmit places a submit boundary above a wrapper subplan.
func wrapSubmit(plan *algebra.Node, wrapperName string) *algebra.Node {
	return algebra.Submit(plan, wrapperName)
}

// resolveAgainst resolves a plan against a catalog.
func resolveAgainst(cat *catalog.Catalog, plan *algebra.Node) error {
	return algebra.Resolve(plan, cat)
}
