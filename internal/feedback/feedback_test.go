package feedback

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act, floor, want float64
	}{
		{100, 100, 1, 1},
		{10, 100, 1, 10},
		{100, 10, 1, 10},
		{0, 0, 1, 1},   // both floored: perfect
		{0, 5, 1, 5},   // est floored to 1
		{0.5, 2, 1, 2}, // est floored to 1
		{math.NaN(), 10, 1, 10},
	}
	for _, c := range cases {
		if got := QError(c.est, c.act, c.floor); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QError(%v, %v, %v) = %v, want %v", c.est, c.act, c.floor, got, c.want)
		}
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(4)
	for _, q := range []float64{1, 2, 3, 10} {
		a.Add(q)
	}
	if a.Count() != 4 || a.Max() != 10 {
		t.Fatalf("count=%d max=%v", a.Count(), a.Max())
	}
	if med := a.Median(); med < 2 || med > 3 {
		t.Errorf("median = %v, want within [2,3]", med)
	}
	// The ring forgets: four more small observations push the 10 out.
	for i := 0; i < 4; i++ {
		a.Add(1.5)
	}
	if q := a.Quantile(1); q != 1.5 {
		t.Errorf("window max after overwrite = %v, want 1.5", q)
	}
	if a.Max() != 10 {
		t.Errorf("lifetime max = %v, want 10", a.Max())
	}
	if a.Count() != 8 {
		t.Errorf("lifetime count = %d, want 8", a.Count())
	}
	// Snapshot round trip.
	st := a.state()
	b := NewAccumulator(4)
	b.restore(st)
	if b.Count() != a.Count() || b.Max() != a.Max() || b.Median() != a.Median() {
		t.Errorf("restored accumulator differs: %+v vs %+v", b, a)
	}
}

func TestAccumulatorEmptyQuantile(t *testing.T) {
	a := NewAccumulator(0)
	if a.Quantile(0.5) != 0 || a.Max() != 0 || a.Count() != 0 {
		t.Error("empty accumulator should answer zeros")
	}
}

// buildJoinedPlan returns a plan select(submit(scan)) with matching
// predictions and actuals for recorder tests.
func buildJoinedPlan() (*algebra.Node, *core.PlanCost, *Profile) {
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(scan, "w1")
	sel := algebra.Select(sub, algebra.NewSelPred(
		algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpLT, types.Int(100)))

	pc := &core.PlanCost{ByNode: map[*algebra.Node]*core.NodeCost{
		scan: {Vars: map[string]float64{"CountObject": 1000, "TotalTime": 50}},
		sub:  {Vars: map[string]float64{"CountObject": 1000, "TotalTime": 80}},
		sel:  {Vars: map[string]float64{"CountObject": 10, "TotalTime": 86}},
	}}
	pc.Root = pc.ByNode[sel]

	prof := NewProfile()
	prof.ByNode[sub] = &OpActual{RowsOut: 1000, RowsIn: 1000, OwnMS: 80, SubtreeMS: 80, Wrapper: "w1", RoundTrips: 1, Bytes: 4096}
	prof.ByNode[sel] = &OpActual{RowsOut: 100, RowsIn: 1000, OwnMS: 6, SubtreeMS: 86}
	prof.ElapsedMS = 86
	return sel, pc, prof
}

func TestRecorderObserve(t *testing.T) {
	plan, pc, prof := buildJoinedPlan()
	r := NewRecorder(0)
	rep := r.Observe(plan, pc, prof)
	if len(rep.Obs) != 2 {
		t.Fatalf("observations = %d, want 2 (scan has no actuals)", len(rep.Obs))
	}
	// Pre-order: the select first, then the submit.
	if rep.Obs[0].Scope != "mediator/select" || rep.Obs[1].Scope != "w1/submit" {
		t.Errorf("scopes = %q, %q", rep.Obs[0].Scope, rep.Obs[1].Scope)
	}
	if q := rep.Obs[0].QRows; math.Abs(q-10) > 1e-9 {
		t.Errorf("select card q-error = %v, want 10 (est 10, act 100)", q)
	}
	if q := rep.Obs[1].QRows; q != 1 {
		t.Errorf("submit card q-error = %v, want 1", q)
	}
	scopes := r.Scopes()
	if len(scopes) != 2 {
		t.Fatalf("scopes = %d, want 2", len(scopes))
	}
	if s := r.Summary(); s == "" {
		t.Error("summary should render")
	}
}

func TestRecorderSkipsExcluded(t *testing.T) {
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(scan, "w1")
	pc := &core.PlanCost{ByNode: map[*algebra.Node]*core.NodeCost{
		sub: {Vars: map[string]float64{"CountObject": 1000, "TotalTime": 80}},
	}}
	pc.Root = pc.ByNode[sub]
	prof := NewProfile()
	prof.ByNode[sub] = &OpActual{Wrapper: "w1", Excluded: true}
	prof.Partial = true

	r := NewRecorder(0)
	rep := r.Observe(sub, pc, prof)
	if len(rep.Obs) != 1 || !rep.Obs[0].Excluded {
		t.Fatalf("want one excluded observation, got %+v", rep.Obs)
	}
	if len(r.Scopes()) != 0 {
		t.Error("excluded observations must not reach the accumulators")
	}
}

// fakeWrapper is the minimal registration-capable wrapper for catalog
// tests; it never executes plans.
type fakeWrapper struct {
	name  string
	colls map[string]fakeColl
}

type fakeColl struct {
	schema *types.Schema
	ext    stats.ExtentStats
	attrs  map[string]stats.AttributeStats
}

func (f *fakeWrapper) Name() string { return f.name }
func (f *fakeWrapper) Collections() []string {
	out := make([]string, 0, len(f.colls))
	for n := range f.colls {
		out = append(out, n)
	}
	return out
}
func (f *fakeWrapper) Schema(c string) (*types.Schema, error) { return f.colls[c].schema, nil }
func (f *fakeWrapper) Capabilities() wrapper.Capabilities     { return wrapper.AllCapabilities() }
func (f *fakeWrapper) ExtentStats(c string) (stats.ExtentStats, bool) {
	cc, ok := f.colls[c]
	return cc.ext, ok
}
func (f *fakeWrapper) AttributeStats(c, a string) (stats.AttributeStats, bool) {
	cc, ok := f.colls[c]
	if !ok {
		return stats.AttributeStats{}, false
	}
	ast, ok := cc.attrs[a]
	return ast, ok
}
func (f *fakeWrapper) CostRules() string                              { return "" }
func (f *fakeWrapper) Execute(*algebra.Node) (*wrapper.Result, error) { return nil, fmt.Errorf("fake") }

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	w := &fakeWrapper{
		name: "w1",
		colls: map[string]fakeColl{
			"Employee": {
				schema: types.NewSchema(
					types.Field{Name: "id", Collection: "Employee", Type: types.KindInt},
					types.Field{Name: "dept", Collection: "Employee", Type: types.KindInt},
				),
				ext: stats.ExtentStats{CountObject: 1000, TotalSize: 64000, ObjectSize: 64},
				attrs: map[string]stats.AttributeStats{
					"id":   {CountDistinct: 1000, Min: types.Int(0), Max: types.Int(999)},
					"dept": {CountDistinct: 10, Min: types.Int(0), Max: types.Int(9)},
				},
			},
		},
	}
	cat := catalog.New()
	if err := cat.Register(w); err != nil {
		t.Fatal(err)
	}
	return cat
}

// submitObs builds the observation stream of a submit(scan(Employee))
// boundary that estimated est rows but saw act.
func submitObs(est, act float64) *Report {
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(scan, "w1")
	o := Obs{Node: sub, Site: "w1", Scope: "w1/submit", EstRows: est, ActRows: act, ActIn: act}
	o.QRows = QError(est, act, 1)
	return &Report{Plan: sub, Obs: []Obs{o}}
}

func TestAdjusterExtentConverges(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	// The wrapper claimed 1000 objects; the source actually holds 100.
	// Estimates track the (corrected) catalog: est = current extent.
	for i := 0; i < 12; i++ {
		info, _ := cat.Entry("w1")
		est := float64(info.Collections["Employee"].Extent.CountObject)
		adj.Apply(submitObs(est, 100), cat)
	}
	info, _ := cat.Entry("w1")
	got := info.Collections["Employee"].Extent.CountObject
	if got < 90 || got > 115 {
		t.Errorf("corrected extent = %d, want ~100", got)
	}
	// TotalSize tracks the corrected count.
	if ts := info.Collections["Employee"].Extent.TotalSize; ts != got*64 {
		t.Errorf("TotalSize = %d, want %d", ts, got*64)
	}
	cors := adj.Corrections()
	if len(cors) != 1 || cors[0].Base != 1000 {
		t.Fatalf("corrections = %+v", cors)
	}
	if f := cors[0].Factor; f < 0.08 || f > 0.13 {
		t.Errorf("factor = %v, want ~0.1", f)
	}
}

func TestAdjusterBoundedStep(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	// A single wild outlier (claimed 1000, observed 1) may move the
	// extent by at most maxStep per update.
	adj.Apply(submitObs(1000, 1), cat)
	info, _ := cat.Entry("w1")
	got := info.Collections["Employee"].Extent.CountObject
	if got < int64(1000/maxStep) {
		t.Errorf("extent = %d dropped below the per-update bound %v", got, 1000/maxStep)
	}
}

func TestAdjusterReapplyAfterReregistration(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	for i := 0; i < 12; i++ {
		info, _ := cat.Entry("w1")
		est := float64(info.Collections["Employee"].Extent.CountObject)
		adj.Apply(submitObs(est, 100), cat)
	}
	// Re-registration resets the catalog to the wrapper's stale claim …
	fresh := testCatalog(t)
	if n := adj.Reapply(fresh); n != 1 {
		t.Fatalf("reapplied %d corrections, want 1", n)
	}
	info, _ := fresh.Entry("w1")
	got := info.Collections["Employee"].Extent.CountObject
	if got < 90 || got > 115 {
		t.Errorf("reapplied extent = %d, want ~100", got)
	}
}

func TestAdjusterRefinesSelectivity(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(scan, "w1")
	sel := algebra.Select(sub, algebra.NewSelPred(
		algebra.Ref{Collection: "Employee", Attr: "id"}, stats.CmpEQ, types.Int(7)))
	// Claimed 1000 distinct ids (sel 0.001); observed: 1000 in, 100 out.
	for i := 0; i < 12; i++ {
		rep := &Report{Plan: sel, Obs: []Obs{{
			Node: sel, Site: "mediator", Scope: "mediator/select",
			EstRows: 1, ActRows: 100, ActIn: 1000,
		}}}
		adj.Apply(rep, cat)
	}
	info, _ := cat.Entry("w1")
	d := info.Collections["Employee"].Attrs["id"].CountDistinct
	if d < 8 || d > 13 {
		t.Errorf("CountDistinct = %d, want ~10 (observed selectivity 0.1)", d)
	}
}

// A mediator-side range selection that misses its estimate corrects
// nothing: the uniform Min/Max model has no statistic a range observation
// could safely move, so dept's statistics stay as registered.
func TestAdjusterLeavesRangeMissAlone(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	before, _ := cat.Attribute("w1", "Employee", "dept")
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(scan, "w1")
	for _, op := range []stats.CmpOp{stats.CmpLT, stats.CmpLE, stats.CmpGT, stats.CmpGE} {
		// Each range on dept is estimated at half the rows; the source
		// returns 90%.
		sel := algebra.Select(sub, algebra.NewSelPred(
			algebra.Ref{Collection: "Employee", Attr: "dept"}, op, types.Int(5)))
		rep := &Report{Plan: sel, Obs: []Obs{{
			Node: sel, Site: "mediator", Scope: "mediator/select",
			EstRows: 500, ActRows: 900, ActIn: 1000,
		}}}
		if adjs := adj.Apply(rep, cat); len(adjs) != 0 {
			t.Errorf("dept %s 5: adjustments %v, want none", op, adjs)
		}
	}
	if after, _ := cat.Attribute("w1", "Employee", "dept"); after != before {
		t.Errorf("dept statistics %+v -> %+v, want unchanged", before, after)
	}
	if cors := adj.Corrections(); len(cors) != 0 {
		t.Errorf("corrections = %+v, want none", cors)
	}
}

func TestDerivedScan(t *testing.T) {
	scan := algebra.Scan("w1", "Employee")
	chain := algebra.Submit(algebra.Project(scan, "id"), "w1")
	if derivedScan(chain) != scan {
		t.Error("project chain should derive from its scan")
	}
	selChain := algebra.Submit(algebra.Project(algebra.Select(scan, algebra.NewSelPred(
		algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(5))), "id"), "w1")
	if derivedScan(selChain) != nil {
		t.Error("a selection confounds selectivity with extent error; no attribution")
	}
	l := algebra.Scan("w1", "A")
	r := algebra.Scan("w1", "B")
	j := algebra.Submit(algebra.Join(l, r, nil), "w1")
	if derivedScan(j) != nil {
		t.Error("a join derives from no single collection")
	}
	d := algebra.Submit(algebra.DupElim(scan), "w1")
	if derivedScan(d) != nil {
		t.Error("dupelim changes cardinality semantics; no extent attribution")
	}
}

// parentFormat is a snapshot as written while the feedback loop also
// re-fitted the mediator's coefficients: the same version, plus a
// "coeffs" key.
const parentFormat = `{
  "version": 1,
  "cards": [{"wrapper": "w1", "collection": "Employee", "base": 1000, "factor": 0.25, "samples": 6}],
  "coeffs": {"MedProjPerObj": 0.0029999999999999992},
  "scopes": {"c w1/submit": {"count": 6, "max": 10, "window": [1, 2, 10]}}
}`

// TestStoreRoundTrip: a snapshot the store saved, and one in the parent
// format, load with their cards and scopes intact and restore into a
// fresh loop.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saved := NewFileStore(filepath.Join(dir, "snap.json"))

	rec := NewRecorder(8)
	adj := NewAdjuster()
	cat := testCatalog(t)
	for i := 0; i < 6; i++ {
		info, _ := cat.Entry("w1")
		est := float64(info.Collections["Employee"].Extent.CountObject)
		rep := submitObs(est, 100)
		rec.Observe(rep.Plan, &core.PlanCost{
			Root:   &core.NodeCost{Vars: map[string]float64{"TotalTime": 1}},
			ByNode: map[*algebra.Node]*core.NodeCost{},
		}, NewProfile())
		adj.Apply(rep, cat)
	}
	snap := Capture(rec, adj)
	if err := saved.Save(snap); err != nil {
		t.Fatal(err)
	}
	parent := NewFileStore(filepath.Join(dir, "parent.json"))
	if err := writeFile(parent.Path, parentFormat); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		store *FileStore
		want  *Snapshot
	}{
		{"saved", saved, snap},
		{"parent format", parent, &Snapshot{
			Version: SnapshotVersion,
			Cards:   []CardCorrection{{Wrapper: "w1", Collection: "Employee", Base: 1000, Factor: 0.25, Samples: 6}},
			Scopes:  map[string]ScopeState{"c w1/submit": {Count: 6, Max: 10, Window: []float64{1, 2, 10}}},
		}},
	} {
		loaded, err := c.store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded.Cards) != 1 || loaded.Cards[0].Collection != "Employee" {
			t.Fatalf("%s: loaded cards = %+v", c.name, loaded.Cards)
		}
		if !snapshotsEqual(loaded, c.want) {
			t.Errorf("%s: loaded %+v, want %+v", c.name, loaded, c.want)
		}

		// Restore into a fresh loop and reapply to a stale catalog.
		rec2, adj2 := NewRecorder(8), NewAdjuster()
		Restore(loaded, rec2, adj2)
		if got := rec2.scopeStates(); !snapshotsEqual(&Snapshot{Scopes: got}, &Snapshot{Scopes: loaded.Scopes}) {
			t.Errorf("%s: restored scopes = %+v, want %+v", c.name, got, loaded.Scopes)
		}
		fresh := testCatalog(t)
		adj2.Reapply(fresh)
		info, _ := fresh.Entry("w1")
		got := info.Collections["Employee"].Extent.CountObject
		want := loaded.Cards[0].Factor * 1000
		if math.Abs(float64(got)-want) > 1.5 {
			t.Errorf("%s: restored extent = %d, want ~%.0f", c.name, got, want)
		}
	}
}

func TestStoreCorruptLoadsEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"missing.json": "", // not written at all
		"garbage.json": "{not json",
		"badver.json":  `{"version": 99, "cards": [{"wrapper":"w","collection":"c","base":1,"factor":2}]}`,
		"poison.json":  `{"version": 1, "cards": [{"wrapper":"w","collection":"c","base":-5,"factor":-1}]}`,
	} {
		store := NewFileStore(filepath.Join(dir, name))
		if name != "missing.json" {
			if err := writeFile(store.Path, content); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := store.Load()
		if err != nil {
			t.Fatalf("%s: Load must not fail: %v", name, err)
		}
		if len(snap.Cards) != 0 || len(snap.Scopes) != 0 {
			t.Errorf("%s: corrupt snapshot must load as empty, got %+v", name, snap)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestAdjusterLearnsMissingExtent(t *testing.T) {
	cat := testCatalog(t)
	e, _ := cat.Entry("w1")
	info := e.Collections["Employee"]
	// The source registered no statistics at all.
	info.HasExtent = false
	info.Extent = stats.ExtentStats{}

	adj := NewAdjuster()
	rep := submitObs(1000, 100)
	rep.Obs[0].Bytes = 6400
	adjs := adj.Apply(rep, cat)
	if len(adjs) != 1 || adjs[0].Kind != "extent-learned" {
		t.Fatalf("adjustments = %v", adjs)
	}
	if !info.HasExtent || info.Extent.CountObject != 100 ||
		info.Extent.ObjectSize != 64 || info.Extent.TotalSize != 6400 {
		t.Errorf("learned extent = %+v", info.Extent)
	}

	// A restart restores the learned extent into a fresh, still
	// statistics-less registration.
	snap := Capture(nil, adj)
	adj2 := NewAdjuster()
	Restore(snap, nil, adj2)
	info.HasExtent = false
	info.Extent = stats.ExtentStats{}
	if n := adj2.Reapply(cat); n != 1 {
		t.Fatalf("Reapply = %d, want 1", n)
	}
	if !info.HasExtent || info.Extent.CountObject != 100 || info.Extent.TotalSize != 6400 {
		t.Errorf("reinstated extent = %+v", info.Extent)
	}
}

func TestAdjusterSkipsSelectiveSubmitChains(t *testing.T) {
	cat := testCatalog(t)
	adj := NewAdjuster()
	scan := algebra.Scan("w1", "Employee")
	sub := algebra.Submit(algebra.Select(scan, algebra.NewSelPred(
		algebra.Ref{Attr: "id"}, stats.CmpLT, types.Int(5))), "w1")
	o := Obs{Node: sub, Site: "w1", Scope: "w1/submit", EstRows: 500, ActRows: 5, ActIn: 5}
	o.QRows = QError(500, 5, 1)
	if adjs := adj.Apply(&Report{Plan: sub, Obs: []Obs{o}}, cat); len(adjs) != 0 {
		t.Errorf("selective chain must not correct the extent, got %v", adjs)
	}
	if len(adj.Corrections()) != 0 {
		t.Errorf("corrections = %v", adj.Corrections())
	}
}
