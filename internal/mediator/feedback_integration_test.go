package mediator

import (
	"os"
	"path/filepath"
	"testing"

	"disco/internal/feedback"
	"disco/internal/resultcache"
)

// misregisterEmployee inflates the registered Employee extent by 10x,
// simulating a wrapper whose statistics went stale after registration
// (the staleness problem the feedback loop exists to repair).
func misregisterEmployee(t *testing.T, m *Mediator) {
	t.Helper()
	e, ok := m.Catalog.Entry("obj1")
	if !ok {
		t.Fatal("obj1 not registered")
	}
	info := e.Collections["Employee"]
	if info == nil || !info.HasExtent {
		t.Fatal("Employee extent missing")
	}
	perObj := info.Extent.TotalSize / info.Extent.CountObject
	info.Extent.CountObject = 10000
	info.Extent.TotalSize = 10000 * perObj
}

func employeeCount(t *testing.T, m *Mediator) int64 {
	t.Helper()
	ext, ok := m.Catalog.Extent("obj1", "Employee")
	if !ok {
		t.Fatal("Employee extent missing")
	}
	return ext.CountObject
}

// A mis-registered extent is pulled toward the observed cardinality by
// running ordinary queries through the real Query loop. History is off:
// its query-scope rules would repair the estimate for the repeated query
// after one round (masking the catalog-level correction this test is
// about), while the adjuster repairs the catalog for every future query.
// The correction clears both caches: a statement whose plan and result
// were cached before it is planned and executed afresh after it.
func TestFeedbackCorrectsMisregisteredExtent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHistory = false
	cfg.Feedback = true
	cfg.ResultCache = resultcache.Config{Enabled: true}
	m := buildMediator(t, cfg)
	misregisterEmployee(t, m)
	if got := employeeCount(t, m); got != 10000 {
		t.Fatalf("inflated extent = %d, want 10000", got)
	}

	// Dept is registered truthfully, so its runs correct nothing and its
	// plan and result stay cached.
	const deptSQL = `SELECT dname FROM Dept`
	for i := 0; i < 2; i++ {
		if _, err := m.Query(deptSQL); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.PlanCacheHits != 1 || st.ResultCacheHits != 1 || st.ResultCacheEntries == 0 {
		t.Fatalf("Dept's plan and result not cached: %+v", st)
	}
	if _, err := m.Query(`SELECT name FROM Employee`); err != nil {
		t.Fatal(err)
	}
	if got := employeeCount(t, m); got == 10000 {
		t.Fatal("one run corrected nothing")
	}
	before := m.Stats()
	if before.ResultCacheEntries != 0 {
		t.Errorf("%d cached results survived the extent correction", before.ResultCacheEntries)
	}
	if _, err := m.Query(deptSQL); err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if after.PlanCacheMisses != before.PlanCacheMisses+1 || after.PlanCacheHits != before.PlanCacheHits {
		t.Errorf("Dept's prepare after the correction: plan-cache misses %d -> %d, hits %d -> %d; want one more miss",
			before.PlanCacheMisses, after.PlanCacheMisses, before.PlanCacheHits, after.PlanCacheHits)
	}
	if after.ResultCacheHits != before.ResultCacheHits {
		t.Errorf("Dept's cached result served after the correction (hits %d -> %d)",
			before.ResultCacheHits, after.ResultCacheHits)
	}

	for i := 1; i < 10; i++ {
		if _, err := m.Query(`SELECT name FROM Employee`); err != nil {
			t.Fatal(err)
		}
	}
	got := employeeCount(t, m)
	if got < 800 || got > 1400 {
		t.Errorf("corrected extent = %d, want near the true 1000", got)
	}
	if m.Feedback == nil || len(m.Feedback.Scopes()) == 0 {
		t.Error("recorder should have accumulated scopes")
	}
	// Dept's truthful registration corrects nothing, so neither the
	// adjuster nor a snapshot carries an entry for it.
	corr := m.Adjuster.Corrections()
	if len(corr) != 1 || corr[0].Wrapper != "obj1" || corr[0].Collection != "Employee" {
		t.Fatalf("corrections = %+v", corr)
	}
	for _, c := range feedback.Capture(m.Feedback, m.Adjuster).Cards {
		if c.Collection == "Dept" {
			t.Errorf("snapshot carries a correction for the truthfully registered Dept: %+v", c)
		}
	}
	if corr[0].Factor > 0.2 {
		t.Errorf("factor = %v, want close to 0.1", corr[0].Factor)
	}
}

// Learned corrections survive a restart: a second mediator constructed
// over the same snapshot file re-applies them after registration.
func TestFeedbackSnapshotPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	mk := func() *Mediator {
		cfg := DefaultConfig()
		cfg.RecordHistory = false
		cfg.Feedback = true
		cfg.FeedbackStore = feedback.NewFileStore(path)
		return buildMediator(t, cfg)
	}

	m1 := mk()
	misregisterEmployee(t, m1)
	for i := 0; i < 10; i++ {
		if _, err := m1.Query(`SELECT name FROM Employee`); err != nil {
			t.Fatal(err)
		}
	}
	factor := m1.Adjuster.Corrections()[0].Factor
	// Saves are debounced; Close flushes the final snapshot.
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file not written: %v", err)
	}

	// Restart: the wrapper still claims the stale statistics, so the
	// second instance mis-registers the same way. Reapply installs the
	// learned factor without a single query having run.
	m2 := mk()
	misregisterEmployee(t, m2)
	if n := m2.Adjuster.Reapply(m2.Catalog); n != 1 {
		t.Fatalf("Reapply corrected %d extents, want 1", n)
	}
	got := employeeCount(t, m2)
	want := int64(float64(10000) * factor)
	if got < want-1 || got > want+1 {
		t.Errorf("reapplied extent = %d, want ~%d (factor %v)", got, want, factor)
	}
	if len(m2.Feedback.Scopes()) == 0 {
		t.Error("restored recorder should carry the learned scopes")
	}
}

// With feedback disabled nothing the executor measures leaks back into
// estimation: plans and estimates stay bit-identical no matter how many
// queries run. (History is off here: it is its own, separate feedback
// channel and is exercised elsewhere.)
func TestFeedbackOffLeavesEstimatesUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHistory = false
	m := buildMediator(t, cfg)
	misregisterEmployee(t, m)

	sql := `SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`
	before, err := m.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	after, err := m.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("feedback off, but estimates drifted:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if got := employeeCount(t, m); got != 10000 {
		t.Errorf("extent changed to %d with feedback off", got)
	}
	if m.Feedback != nil || m.Adjuster != nil {
		t.Error("feedback machinery should be nil when disabled")
	}
}
