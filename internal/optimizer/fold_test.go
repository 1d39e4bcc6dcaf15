package optimizer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/feedback"
	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// scaledWrapper registers one collection's extent scaled by a factor.
type scaledWrapper struct {
	wrapper.Wrapper
	coll   string
	factor int64
}

func (w scaledWrapper) ExtentStats(coll string) (stats.ExtentStats, bool) {
	ext, ok := w.Wrapper.ExtentStats(coll)
	if ok && coll == w.coll {
		ext.CountObject *= w.factor
		ext.TotalSize *= w.factor
	}
	return ext, ok
}

// foldingRules is a rule for obj1's Employee submits whose formula folds
// a named collection's statistics (Manager.CountObject) and a mediator
// global (MedPerPred) into constants.
const foldingRules = `submit(Employee) {
  TotalTime = Employee.TotalTime + Manager.CountObject * MedPerPred + Net.Latency;
}`

// foldFixture is the optimizer fixture with foldingRules integrated.
func foldFixture(t *testing.T) *fixture {
	t.Helper()
	f := buildFixture(t)
	file, err := costlang.Parse(foldingRules)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.IntegrateWrapper("obj1", file, f.cat); err != nil {
		t.Fatal(err)
	}
	return f
}

// outcome is what a search chose: plan, cost bits and effort.
type outcome struct {
	plan   string
	cost   uint64
	costed int
}

func search1(t *testing.T, f *fixture, est *core.Estimator, qb *QueryBlock) outcome {
	t.Helper()
	res, err := New(f.cat, est, DefaultOptions()).Optimize(qb)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{res.Plan.Signature(), math.Float64bits(res.Cost.TotalTime()), res.PlansCosted}
}

// freshEstimator builds an estimator over the fixture's registry,
// catalog and network with the default coefficients
// (core.DefaultCoefficients), which no event changes: one that has folded
// nothing yet.
func freshEstimator(f *fixture, est *core.Estimator) *core.Estimator {
	return core.NewEstimator(f.reg, f.cat, est.Net)
}

// The model events the folded rules must follow: a re-registration that
// scales Manager's extent, a feedback correction of Manager's extent, and
// a link change at obj1. Each returns an error when it did not change the
// model.
func reregisterEvent(f *fixture, factor int64) error {
	return f.cat.Register(scaledWrapper{Wrapper: f.wrappers[0], coll: "Manager", factor: factor})
}

func feedbackEvent(f *fixture, adj *feedback.Adjuster, actRows float64) error {
	dno := algebra.NewSelPred(algebra.Ref{Collection: "Dept", Attr: "dno"}, stats.CmpLT, types.Int(25))
	rep := &feedback.Report{Obs: []feedback.Obs{
		{Node: algebra.Submit(algebra.Scan("obj1", "Manager"), "obj1"), Site: "obj1", EstRows: 50, ActRows: actRows},
		{Node: algebra.Select(algebra.Scan("rel1", "Dept"), dno), Site: "mediator", ActIn: 1000, ActRows: 500},
	}}
	kinds := map[string]bool{}
	for _, a := range adj.Apply(rep, f.cat) {
		kinds[a.Kind] = true
	}
	if !kinds["extent"] {
		return fmt.Errorf("feedback applied %v, want an extent correction", kinds)
	}
	return nil
}

func setLinkEvent(f *fixture, latency float64) error {
	f.est.Net.(*netsim.Network).SetLink("obj1", netsim.Link{LatencyMS: latency, PerByteMS: 0.001})
	return nil
}

// TestFoldsFollowTheModel: the long-lived estimator, whose rules were
// folded before each event, must price exactly like an estimator built
// after it, on every golden block: after re-registering obj1 with a 10x
// Manager extent, after a feedback correction of Manager's extent, and
// after a link change at obj1. The long-lived estimator searches first,
// so it reads the folds it made before the event unless the event retired
// them. Each event must move the four-way cost, or the test could not see
// a stale fold.
func TestFoldsFollowTheModel(t *testing.T) {
	f := foldFixture(t)
	adj := feedback.NewAdjuster()
	blocks := equivalenceBlocks()
	names := blockNames(blocks)
	last := map[string]outcome{}
	for _, name := range names {
		last[name] = search1(t, f, f.est, blocks[name])
	}
	events := []struct {
		name string
		do   func() error
	}{
		{"re-register with a 10x extent", func() error { return reregisterEvent(f, 10) }},
		{"feedback statistics correction", func() error { return feedbackEvent(f, adj, 400) }},
		{"setlink", func() error { return setLinkEvent(f, 40) }},
	}
	for _, ev := range events {
		if err := ev.do(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		for _, name := range names {
			got := search1(t, f, f.est, blocks[name])
			want := search1(t, f, freshEstimator(f, f.est), blocks[name])
			if got != want {
				t.Errorf("after %s, %s: long-lived estimator chose %+v, a fresh one %+v", ev.name, name, got, want)
			}
			if name == "four-way" && got.cost == last[name].cost {
				t.Errorf("after %s, four-way still costs %v: the event did not reach the folded rule",
					ev.name, math.Float64frombits(got.cost))
			}
			last[name] = got
		}
	}
}

// TestConcurrentSearchAcrossRegister races searches on estimator clones,
// which share the rules' folds and the registry, against
// re-registrations, feedback absorption and link changes, under the
// mediator's discipline: searches hold a read lock, model changes the
// write lock. Every search is then repeated sequentially at the same
// model state, on a fixture brought there by the same events, and must
// choose the same plan at the same cost after the same effort.
func TestConcurrentSearchAcrossRegister(t *testing.T) {
	blocks := equivalenceBlocks()
	names := []string{"four-way", "three-way", "two-way", "join8"}
	events := func(f *fixture, adj *feedback.Adjuster) []func() error {
		var out []func() error
		for k := 0; k < 3; k++ {
			out = append(out,
				func() error {
					if err := reregisterEvent(f, int64(2+k)); err != nil {
						return err
					}
					// Registration replaces the wrapper's rules too.
					f.reg.DropWrapper("rel1")
					file, err := costlang.Parse(f.wrappers[1].CostRules())
					if err != nil {
						return err
					}
					return f.reg.IntegrateWrapper("rel1", file, f.cat)
				},
				func() error { return feedbackEvent(f, adj, float64(200+100*k)) },
				func() error { return setLinkEvent(f, float64(20+10*k)) })
		}
		return out
	}

	type record struct {
		state int
		name  string
		out   outcome
	}
	f := foldFixture(t)
	adj := feedback.NewAdjuster()
	evs := events(f, adj)
	var mu sync.RWMutex
	state := 0
	var recMu sync.Mutex
	var recs []record
	done := make(chan struct{})
	var wg sync.WaitGroup
	var live atomic.Int32
	for g := 0; g < 3; g++ {
		wg.Add(1)
		live.Add(1)
		go func(g int) {
			defer wg.Done()
			defer live.Add(-1)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := names[(g+i)%len(names)]
				mu.RLock()
				st := state
				res, err := New(f.cat, f.est.Clone(), DefaultOptions()).Optimize(blocks[name])
				mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				recMu.Lock()
				recs = append(recs, record{st, name, outcome{res.Plan.Signature(), math.Float64bits(res.Cost.TotalTime()), res.PlansCosted}})
				recMu.Unlock()
			}
		}(g)
	}
	// Each event waits until the searchers have recorded a round at the
	// state before it.
	var evErr error
	for _, ev := range evs {
		for seen := -1; live.Load() > 0; {
			recMu.Lock()
			n := len(recs)
			recMu.Unlock()
			if seen >= 0 && n >= seen+len(names) {
				break
			}
			if seen < 0 {
				seen = n
			}
			runtime.Gosched()
		}
		mu.Lock()
		evErr = ev()
		state++
		mu.Unlock()
		if evErr != nil {
			break
		}
	}
	close(done)
	wg.Wait()
	if evErr != nil {
		t.Fatal(evErr)
	}

	// Replay: the same events, sequentially, on a fresh fixture.
	g := foldFixture(t)
	gadj := feedback.NewAdjuster()
	gevs := events(g, gadj)
	want := map[string]outcome{}
	checked := 0
	for st := 0; st <= len(gevs); st++ {
		if st > 0 {
			if err := gevs[st-1](); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			want[name] = search1(t, g, freshEstimator(g, g.est), blocks[name])
		}
		for _, r := range recs {
			if r.state != st {
				continue
			}
			checked++
			if r.out != want[r.name] {
				t.Errorf("state %d, %s: concurrent search chose %+v, sequential %+v", st, r.name, r.out, want[r.name])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no concurrent search was recorded")
	}
}
