package mediator

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"disco/internal/resultcache"
	"disco/internal/types"
)

func resultCacheConfig() Config {
	cfg := DefaultConfig()
	cfg.ResultCache = resultcache.Config{Enabled: true}
	return cfg
}

func rowsKey(rows []types.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	// Queries here are deterministic single plans: row order is stable,
	// so a positional join is a fair comparison.
	key := ""
	for _, s := range out {
		key += s + "\n"
	}
	return key
}

func TestResultCacheServesRepeatedQuery(t *testing.T) {
	m := buildMediator(t, resultCacheConfig())
	const sql = `SELECT name, salary FROM Employee WHERE id < 25`

	first, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(first.Rows))
	}
	second, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(second.Rows) != rowsKey(first.Rows) {
		t.Error("cache-served answer differs from the executed answer")
	}
	if second.Partial {
		t.Error("cache-served answer marked Partial")
	}
	// A whole-plan hit is charged the near-zero cache lookup time, far
	// below a real execution over the simulated network.
	if second.ElapsedMS >= first.ElapsedMS {
		t.Errorf("hit elapsed %.4f ms, miss elapsed %.4f ms — hit should be cheaper",
			second.ElapsedMS, first.ElapsedMS)
	}
	st := m.Stats()
	if st.ResultCacheHits == 0 {
		t.Error("no result-cache hits recorded")
	}
	if st.ResultCacheEntries == 0 || st.ResultCacheBytes <= 0 {
		t.Errorf("entries = %d bytes = %d, want populated cache",
			st.ResultCacheEntries, st.ResultCacheBytes)
	}
}

// TestResultCacheDisabledBitIdentical pins the off-by-default discipline:
// with the zero-value config the result cache does not exist — every
// counter stays zero, repeated executions cost identical virtual time
// (nothing is served from memory), and the chosen plan matches what an
// enabled-cache mediator picks (the cache never reaches the optimizer;
// TestResultCacheLeavesPlansAlone covers a populated cache).
func TestResultCacheDisabledBitIdentical(t *testing.T) {
	queries := []string{
		`SELECT name, salary FROM Employee WHERE id < 25`,
		`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`,
		`SELECT name FROM Employee WHERE dept = 3`,
	}
	off := buildMediator(t, DefaultConfig())
	on := buildMediator(t, resultCacheConfig())

	for _, sql := range queries {
		pOff, err := off.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := on.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if pOff.Plan.Signature() != pOn.Plan.Signature() {
			t.Errorf("empty-cache plan differs for %q:\noff: %s\non:  %s",
				sql, pOff.Plan.Signature(), pOn.Plan.Signature())
		}

		r1, err := off.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := off.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(r1.Rows) != rowsKey(r2.Rows) {
			t.Errorf("disabled cache: repeated query %q changed its answer", sql)
		}
		// The repeat re-executes against the sources: its virtual time
		// stays orders of magnitude above the cache hit floor.
		// (Exact equality would overreach — source-side buffer pools warm
		// between runs, with or without this subsystem.)
		if r2.ElapsedMS < 100*resultcache.HitFloorMS {
			t.Errorf("disabled cache: repeat of %q took %.4f ms — served from memory?", sql, r2.ElapsedMS)
		}

		rOn, err := on.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(rOn.Rows) != rowsKey(r1.Rows) {
			t.Errorf("enabled cache changed the answer for %q", sql)
		}
	}

	st := off.Stats()
	if st.ResultCacheHits != 0 || st.ResultCacheMisses != 0 || st.ResultCacheEntries != 0 ||
		st.ResultCacheBytes != 0 || st.ResultCacheInvalidations != 0 {
		t.Errorf("disabled result cache leaked counters: %+v", st)
	}
}

func TestResultCacheInvalidatedByReregister(t *testing.T) {
	m := buildMediator(t, resultCacheConfig())
	const sql = `SELECT name FROM Employee WHERE id < 30`

	first, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ResultCacheHits == 0 {
		t.Fatal("warm-up queries never hit")
	}

	w, ok := m.Wrapper("obj1")
	if !ok {
		t.Fatal("obj1 not registered")
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ResultCacheInvalidations == 0 {
		t.Error("re-registration did not invalidate the result cache")
	}
	if st.ResultCacheEntries != 0 {
		t.Errorf("entries = %d after re-registration, want 0", st.ResultCacheEntries)
	}

	hitsBefore := st.ResultCacheHits
	again, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(again.Rows) != rowsKey(first.Rows) {
		t.Error("post-registration answer differs")
	}
	if got := m.Stats().ResultCacheHits; got != hitsBefore {
		t.Errorf("first query after invalidation hit the cache (hits %d -> %d)", hitsBefore, got)
	}
}

// TestResultCachePartialOutageGuard is the partial-answer leakage guard:
// a Result.Partial produced while a wrapper is down is never admitted to
// the result cache, a stale complete answer is never served during the
// outage, and recovery invalidates so the revived source is re-queried.
func TestResultCachePartialOutageGuard(t *testing.T) {
	m := buildMediator(t, resultCacheConfig())
	const sql = `SELECT name, salary FROM Employee WHERE id < 20`

	full, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || len(full.Rows) != 20 {
		t.Fatalf("warm-up: partial=%v rows=%d, want complete 20", full.Partial, len(full.Rows))
	}
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}

	// The outage: the cached complete answer must die with the source.
	m.Engine.MarkUnavailable("obj1")
	for i := 0; i < 2; i++ {
		res, err := m.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatalf("query %d during outage not Partial — a cached complete answer leaked", i)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("query %d during outage returned %d rows from a dead source", i, len(res.Rows))
		}
	}
	if st := m.Stats(); st.ResultCacheEntries != 0 {
		t.Errorf("outage admitted %d Partial entries to the cache", st.ResultCacheEntries)
	}

	// Recovery re-registers the wrapper; the first query must re-execute
	// against the revived source, not surface any pre-outage entry.
	w, _ := m.Wrapper("obj1")
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	recovered, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Partial || len(recovered.Rows) != 20 {
		t.Fatalf("after recovery: partial=%v rows=%d, want complete 20",
			recovered.Partial, len(recovered.Rows))
	}
	if rowsKey(recovered.Rows) != rowsKey(full.Rows) {
		t.Error("post-recovery answer differs from pre-outage answer")
	}
}

// TestResultCachePartialOutageGuardConcurrent races queries against
// outage/recovery flips. The invariant (checked under -race by
// ci-resultcache): every answer is either marked Partial or is the
// complete 20-row result — a Partial row set must never be served as a
// complete cached answer, in flight or after recovery.
func TestResultCachePartialOutageGuardConcurrent(t *testing.T) {
	m := buildMediator(t, resultCacheConfig())
	const sql = `SELECT name, salary FROM Employee WHERE id < 20`
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := m.Query(sql)
				if err != nil {
					errs <- err
					return
				}
				if !res.Partial && len(res.Rows) != 20 {
					errs <- fmt.Errorf("complete answer with %d rows, want 20", len(res.Rows))
					return
				}
				if res.Partial && len(res.Rows) != 0 {
					errs <- fmt.Errorf("partial answer carries %d rows from a dead source", len(res.Rows))
					return
				}
			}
		}()
	}

	w, _ := m.Wrapper("obj1")
	for i := 0; i < 10; i++ {
		m.Engine.MarkUnavailable("obj1")
		if err := m.Register(w); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced and recovered: the answer must be complete again.
	res, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Rows) != 20 {
		t.Fatalf("after final recovery: partial=%v rows=%d", res.Partial, len(res.Rows))
	}
}

// TestResultCacheFeedbackInteraction: cache-served executions carry no
// fresh wrapper timings, so the feedback loop must not absorb them —
// repeated hits leave the learned state exactly where the first real
// execution put it.
func TestResultCacheFeedbackInteraction(t *testing.T) {
	cfg := resultCacheConfig()
	cfg.Feedback = true
	m := buildMediator(t, cfg)
	const sql = `SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`

	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	observations := func() int64 {
		var n int64
		for _, s := range m.Feedback.Scopes() {
			n += s.Count
		}
		return n
	}
	absorbedAfterFirst := observations()
	for i := 0; i < 3; i++ {
		if _, err := m.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.ResultCacheHits == 0 {
		t.Fatal("repeats never hit the cache")
	}
	if got := observations(); got != absorbedAfterFirst {
		t.Errorf("feedback absorbed cache-served executions (%d -> %d observations)",
			absorbedAfterFirst, got)
	}
}

// TestResultCacheLeavesPlansAlone: what the result cache holds never
// reaches the optimizer. A mediator whose cache holds the answers of
// Employee's selective submit (run alone and under a join) prepares
// another join over that submit exactly as a mediator that has run
// nothing: same plan, same root cost bits. History is off on both, so
// only the cache contents differ.
func TestResultCacheLeavesPlansAlone(t *testing.T) {
	cfg := resultCacheConfig()
	cfg.RecordHistory = false
	warm := buildMediator(t, cfg)
	cold := buildMediator(t, cfg)
	for _, sql := range []string{
		`SELECT name, salary FROM Employee WHERE id < 25`,
		`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND id < 25`,
	} {
		if _, err := warm.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := warm.Stats(); st.ResultCacheEntries == 0 {
		t.Fatal("warm-up cached nothing")
	}

	const join = `SELECT name, salary, dname FROM Employee, Dept WHERE dept = dno AND id < 25`
	pw, err := warm.Prepare(join)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cold.Prepare(join)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Plan.Signature() != pc.Plan.Signature() {
		t.Errorf("cached answers changed the plan:\nwarm: %s\ncold: %s", pw.Plan.Signature(), pc.Plan.Signature())
	}
	if w, c := pw.Cost.TotalTime(), pc.Cost.TotalTime(); math.Float64bits(w) != math.Float64bits(c) {
		t.Errorf("cached answers changed the root cost: warm %v ms, cold %v ms", w, c)
	}
}
