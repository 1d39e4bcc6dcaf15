package mediator

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/core"
	"disco/internal/feedback"
	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// concurrencyQueries is a mixed query-only workload over the
// three-source fixture: point lookups, scans, a cross-source join and an
// aggregate. Every statement is deterministic, so concurrent and
// sequential runs must produce identical row multisets.
var concurrencyQueries = []string{
	`SELECT name, salary FROM Employee WHERE id < 10`,
	`SELECT name FROM Employee WHERE salary < 1050`,
	`SELECT dname FROM Dept`,
	`SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1020`,
	`SELECT COUNT(*) FROM Notes`,
	`SELECT name FROM Employee WHERE id = 421`,
}

// canonRows renders rows as a sorted multiset string for
// order-insensitive comparison across runs.
func canonRows(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.String()
		}
		lines[i] = strings.Join(cells, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestConcurrentQueriesMatchSequential runs the query-only workload from
// many goroutines and asserts every answer is identical to the
// sequential baseline: same row multiset for every statement, no errors.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	m := buildMediator(t, DefaultConfig())

	// Sequential baseline.
	want := make(map[string]string, len(concurrencyQueries))
	for _, sql := range concurrencyQueries {
		res, err := m.Query(sql)
		if err != nil {
			t.Fatalf("baseline %s: %v", sql, err)
		}
		want[sql] = canonRows(res.Rows)
	}

	const workers = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the statement order per worker.
				for i := range concurrencyQueries {
					sql := concurrencyQueries[(i+w+r)%len(concurrencyQueries)]
					res, err := m.Query(sql)
					if err != nil {
						errs <- fmt.Errorf("%s: %w", sql, err)
						return
					}
					if got := canonRows(res.Rows); got != want[sql] {
						errs <- fmt.Errorf("%s: concurrent rows diverge from sequential run", sql)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := m.Stats()
	if st.PlanCacheHits == 0 {
		t.Errorf("repeated statements should hit the plan cache, stats = %+v", st)
	}
}

// TestConcurrentMixedTraffic hammers the mediator with queries, explains
// and prepared executions while registrations and a mid-run source
// outage happen concurrently — the full serving surface under -race.
// Queries may see either federation state (and partial answers after the
// outage), but nothing may error, race, or deadlock.
func TestConcurrentMixedTraffic(t *testing.T) {
	m, _, _ := startFaultyDeployment(t, netsim.FaultPlan{UnavailableAfter: 30})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Query traffic: local statements must always succeed; statements
	// over the remote Parts source may degrade to partial answers after
	// the injected outage but must never fail.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + w) % 3 {
				case 0:
					if _, err := m.Query(`SELECT dname FROM Dept`); err != nil {
						report(fmt.Errorf("local query: %w", err))
						return
					}
				case 1:
					if _, err := m.Query(`SELECT pid FROM Parts WHERE pid < 20`); err != nil {
						report(fmt.Errorf("remote query: %w", err))
						return
					}
				case 2:
					if _, err := m.Explain(`SELECT name FROM Employee WHERE id < 50`); err != nil {
						report(fmt.Errorf("explain: %w", err))
						return
					}
				}
			}
		}(w)
	}

	// Prepare/ExecutePlan traffic racing the registrations below: stale
	// plans must transparently re-prepare, never error.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, err := m.Prepare(`SELECT name FROM Employee WHERE salary < 1010`)
			if err != nil {
				report(fmt.Errorf("prepare: %w", err))
				return
			}
			if _, err := m.ExecutePlan(p); err != nil {
				report(fmt.Errorf("execute prepared: %w", err))
				return
			}
		}
	}()

	// Availability polling (the satellite-1 regression surface).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Available("remoteparts")
			m.Unavailable()
		}
	}()

	// Re-registration churn: every registration bumps the catalog epoch
	// and invalidates every cached plan while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w, ok := m.Wrapper("rel1")
			if !ok {
				report(errors.New("rel1 disappeared"))
				return
			}
			if err := m.Register(w); err != nil {
				report(fmt.Errorf("re-register: %w", err))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAvailableUnavailableRace is the regression test for the
// unsynchronized down-mark map: readers polling availability while the
// engine's outage callback marks wrappers down used to be a data race.
func TestAvailableUnavailableRace(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Available("obj1")
				m.Unavailable()
			}
		}()
	}
	for i := 0; i < 100; i++ {
		// markUnavailable is what the engine's outage callback invokes
		// mid-execution; Register revives.
		m.markUnavailable("files")
		w, _ := m.Wrapper("files")
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := m.Unavailable(); len(got) != 0 {
		t.Errorf("all wrappers revived, Unavailable() = %v", got)
	}
}

// TestExecutePlanReprepareAfterRegister pins the epoch discipline: a
// plan prepared before a re-registration re-prepares transparently at
// execution, and a SQL-less stale plan is rejected with ErrStalePlan.
func TestExecutePlanReprepareAfterRegister(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	sql := `SELECT name, dname FROM Employee, Dept WHERE dept = dno AND salary < 1050`
	p, err := m.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash.Lo == 0 && p.Hash.Hi == 0 {
		t.Error("prepared plan should carry its structural hash")
	}
	epoch := p.Epoch

	// Re-register a wrapper between prepare and execute: the catalog
	// epoch bumps and the plan's generation is invalid.
	w, _ := m.Wrapper("rel1")
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	if m.Catalog.Epoch() == epoch {
		t.Fatal("re-registration must bump the catalog epoch")
	}

	res, err := m.ExecutePlan(p)
	if err != nil {
		t.Fatalf("stale plan with SQL must transparently re-prepare: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("re-prepared execution rows = %d, want 100", len(res.Rows))
	}
	if st := m.Stats(); st.Reprepares != 1 {
		t.Errorf("Reprepares = %d, want 1", st.Reprepares)
	}

	// A stale plan without SQL text cannot be re-prepared.
	orphan := *p
	orphan.SQL = ""
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecutePlan(&orphan); !errors.Is(err, ErrStalePlan) {
		t.Errorf("SQL-less stale plan: err = %v, want ErrStalePlan", err)
	}
}

// TestPlanCache pins the cache semantics: repeated statements hit,
// whitespace variants normalize to one entry, registrations invalidate
// by epoch, the LRU bound holds, and a negative size disables caching.
func TestPlanCache(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	sql := `SELECT name FROM Employee WHERE id < 10`

	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	// Whitespace variant shares the entry.
	if _, err := m.Query("SELECT   name\n FROM Employee  WHERE id < 10;"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PlanCacheHits != 2 {
		t.Errorf("PlanCacheHits = %d, want 2 (repeat + normalized variant)", st.PlanCacheHits)
	}

	// Registration bumps the epoch; a fresh query re-plans.
	w, _ := m.Wrapper("obj1")
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}
	if st = m.Stats(); st.PlanCacheHits != 2 {
		t.Errorf("post-registration query must miss, hits = %d", st.PlanCacheHits)
	}

	// LRU bound.
	cfg := DefaultConfig()
	cfg.PlanCacheSize = 2
	m2 := buildMediator(t, cfg)
	for _, q := range []string{
		`SELECT name FROM Employee WHERE id < 1`,
		`SELECT name FROM Employee WHERE id < 2`,
		`SELECT name FROM Employee WHERE id < 3`,
	} {
		if _, err := m2.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := m2.Stats().PlanCacheEntries; n > 2 {
		t.Errorf("cache entries = %d, want <= 2", n)
	}

	// Disabled cache never hits.
	cfg = DefaultConfig()
	cfg.PlanCacheSize = -1
	m3 := buildMediator(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := m3.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if st := m3.Stats(); st.PlanCacheHits != 0 || st.PlanCacheEntries != 0 {
		t.Errorf("disabled cache: stats = %+v", st)
	}
}

// TestAdmissionControl pins the load-shedding semantics of the
// max-in-flight semaphore.
func TestAdmissionControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.AdmissionTimeout = 25 * time.Millisecond
	m := buildMediator(t, cfg)
	sql := `SELECT dname FROM Dept`

	// Saturate the only slot; every query sheds after the queue timeout.
	if err := m.adm.acquire(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := m.Query(sql)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated mediator: err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("shed after %v, want the full queue timeout", waited)
	}
	if st := m.Stats(); st.Shed != 1 || st.InFlight != 1 {
		t.Errorf("stats = %+v, want Shed=1 InFlight=1", st)
	}

	// Releasing the slot restores service.
	m.adm.release()
	if _, err := m.Query(sql); err != nil {
		t.Fatal(err)
	}

	// A queued query is admitted as soon as a slot frees within the
	// timeout.
	cfg.AdmissionTimeout = 2 * time.Second
	m2 := buildMediator(t, cfg)
	if err := m2.adm.acquire(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m2.Query(sql)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m2.adm.release()
	if err := <-done; err != nil {
		t.Errorf("queued query after release: %v", err)
	}
}

// countingStore wraps a feedback store, counting saves.
type countingStore struct {
	mu    sync.Mutex
	inner feedback.Store
	saves int
}

func (c *countingStore) Save(s *feedback.Snapshot) error {
	c.mu.Lock()
	c.saves++
	c.mu.Unlock()
	return c.inner.Save(s)
}
func (c *countingStore) Load() (*feedback.Snapshot, error) { return c.inner.Load() }
func (c *countingStore) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// TestFeedbackSaveDebounce pins the coalescing: N absorbed executions
// inside the save window produce far fewer writes than N, and Close
// flushes a final snapshot carrying the complete learned state.
func TestFeedbackSaveDebounce(t *testing.T) {
	store := &countingStore{inner: feedback.NewFileStore(filepath.Join(t.TempDir(), "feedback.json"))}
	cfg := DefaultConfig()
	cfg.RecordHistory = false
	cfg.Feedback = true
	cfg.FeedbackStore = store
	m := buildMediator(t, cfg)

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := m.Query(`SELECT name FROM Employee WHERE salary < 1050`); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.count(); got != 1 {
		t.Errorf("saves during the window = %d, want 1 (first absorb), for %d queries", got, n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := store.count(); got != 2 {
		t.Errorf("saves after Close = %d, want 2", got)
	}

	// The flushed snapshot matches the live state, not the first query's.
	snap, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	live := feedback.Capture(m.Feedback, m.Adjuster)
	if len(snap.Scopes) != len(live.Scopes) || len(snap.Cards) != len(live.Cards) {
		t.Errorf("flushed snapshot (scopes=%d cards=%d) != live capture (scopes=%d cards=%d)",
			len(snap.Scopes), len(snap.Cards), len(live.Scopes), len(live.Cards))
	}

}

// TestNormalizeSQL pins the cache-key canonicalization.
func TestNormalizeSQL(t *testing.T) {
	cases := map[string]string{
		"SELECT a FROM b":           "SELECT a FROM b",
		"  SELECT   a\n\tFROM  b ;": "SELECT a FROM b",
		"SELECT a FROM b;":          "SELECT a FROM b",
		"select a from b":           "select a from b",
		// Literal content is preserved byte-for-byte: embedded runs of
		// whitespace, leading/trailing spaces, tabs and newlines inside
		// quotes, and the other quote character as ordinary content (the
		// lexer has no escape mechanism — see NormalizeSQL).
		"SELECT a FROM b WHERE x = 'a  b'":        "SELECT a FROM b WHERE x = 'a  b'",
		"SELECT  a FROM b  WHERE x = ' a\t b ' ;": "SELECT a FROM b WHERE x = ' a\t b '",
		`SELECT a FROM b WHERE x = "it's  ok"`:    `SELECT a FROM b WHERE x = "it's  ok"`,
		"SELECT a FROM b WHERE x = 'multi\nline'": "SELECT a FROM b WHERE x = 'multi\nline'",
		// Outside-literal collapsing still applies around literals.
		"SELECT a FROM b WHERE x =   'a b'  AND y =  2": "SELECT a FROM b WHERE x = 'a b' AND y = 2",
		// An unterminated literal runs to the end of the statement; the
		// trailing "; " trim must not amputate its content.
		"SELECT a FROM b WHERE x = 'dangling  ;": "SELECT a FROM b WHERE x = 'dangling  ;",
	}
	for in, want := range cases {
		if got := NormalizeSQL(in); got != want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", in, got, want)
		}
	}
	if NormalizeSQL("SELECT 'a' FROM b") == NormalizeSQL("SELECT 'A' FROM b") {
		t.Error("case variants must not collide (string constants are case-sensitive)")
	}
	if NormalizeSQL("SELECT a FROM b WHERE x = 'a  b'") == NormalizeSQL("SELECT a FROM b WHERE x = 'a b'") {
		t.Error("literals differing only in embedded whitespace must not share a cache key")
	}
}

// TestPlanCacheGenerationRefusesStalePut pins the clear generation: a
// put carrying a generation older than the last clear is dropped, and a
// put under the current generation is kept.
func TestPlanCacheGenerationRefusesStalePut(t *testing.T) {
	c := newPlanCache(4)
	before := c.generation()
	c.clear()
	c.put("q", &Prepared{SQL: "q", Epoch: 1}, before)
	if c.len() != 0 {
		t.Fatal("a plan snapshotted before the clear was cached after it")
	}
	c.put("q", &Prepared{SQL: "q", Epoch: 1}, c.generation())
	if _, ok := c.get("q", 1); !ok {
		t.Fatal("a plan under the current generation was not cached")
	}
}

// gatedNet is a network model that, once armed, parks the first pricing
// call that reaches it until release is closed: a prepare stops in the
// middle of its search.
type gatedNet struct {
	core.NetProvider
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedNet) LatencyMS(w string) float64 {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.NetProvider.LatencyMS(w)
}

// TestPlanCacheOutageMarkMidPrepare marks a wrapper down while a prepare
// of a query over it is pricing candidates. The plan was priced with the
// dead wrapper's rules, so it must not reach the plan cache that the
// mark cleared; otherwise every later prepare of the statement is served
// that plan until the next registration.
func TestPlanCacheOutageMarkMidPrepare(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	gate := &gatedNet{NetProvider: m.Estimator.Net, entered: make(chan struct{}), release: make(chan struct{})}
	m.Estimator.Net = gate
	const sql = `SELECT name FROM Employee WHERE id < 5`
	done := make(chan *Prepared)
	go func() {
		p, err := m.Prepare(sql)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-gate.entered
	m.markUnavailable("obj1")
	close(gate.release)
	first := <-done
	if n := m.cache.len(); n != 0 {
		t.Fatalf("the outage mark cleared the plan cache mid-prepare, yet it holds %d plan(s) afterwards", n)
	}
	if again, err := m.Prepare(sql); err == nil && first != nil && again == first {
		t.Error("a later prepare was served the plan priced before the outage mark")
	}
}

// TestPlanCacheStaleAccounting pins the stale-entry bookkeeping of
// planCache.get: an epoch-stale eviction is exactly one miss AND one
// stale — Stale is a subset of Misses, never a third disjoint outcome —
// and plain misses leave the stale counter alone.
func TestPlanCacheStaleAccounting(t *testing.T) {
	c := newPlanCache(4)
	c.put("q", &Prepared{SQL: "q", Epoch: 1}, c.generation())

	// Epoch bump between put and get: evicted on sight, one miss + one
	// stale.
	if _, ok := c.get("q", 2); ok {
		t.Fatal("epoch-stale plan served")
	}
	hits, misses, stale := c.counters()
	if hits != 0 || misses != 1 || stale != 1 {
		t.Errorf("after stale get: hits/misses/stale = %d/%d/%d, want 0/1/1", hits, misses, stale)
	}
	if c.len() != 0 {
		t.Errorf("stale entry not evicted: len = %d", c.len())
	}

	// A plain miss on an unknown key counts a miss only.
	if _, ok := c.get("q", 2); ok {
		t.Fatal("evicted plan served")
	}
	hits, misses, stale = c.counters()
	if hits != 0 || misses != 2 || stale != 1 {
		t.Errorf("after plain miss: hits/misses/stale = %d/%d/%d, want 0/2/1", hits, misses, stale)
	}

	// The refreshed entry hits under the new epoch.
	c.put("q", &Prepared{SQL: "q", Epoch: 2}, c.generation())
	if _, ok := c.get("q", 2); !ok {
		t.Fatal("refreshed plan missing")
	}
	hits, misses, stale = c.counters()
	if hits != 1 || misses != 2 || stale != 1 {
		t.Errorf("after refresh: hits/misses/stale = %d/%d/%d, want 1/2/1", hits, misses, stale)
	}

	// Stats() exposes the same counters with the same subset
	// relationship. (Register clears the cache outright, so a live
	// mediator sees the stale path only when an entry survives an epoch
	// bump — e.g. a get racing a registration; the unit part above pins
	// that path directly.)
	m := buildMediator(t, DefaultConfig())
	if _, err := m.Query(`SELECT name FROM Employee WHERE id < 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(`SELECT name FROM Employee WHERE id < 5`); err != nil {
		t.Fatal(err)
	}
	w, _ := m.Wrapper("rel1")
	if err := m.Register(w); err != nil { // epoch bump + cache clear
		t.Fatal(err)
	}
	if _, err := m.Query(`SELECT name FROM Employee WHERE id < 5`); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.PlanCacheStale > s.PlanCacheMisses {
		t.Errorf("Stale (%d) exceeds Misses (%d): stale must be a miss subset", s.PlanCacheStale, s.PlanCacheMisses)
	}
	if s.PlanCacheHits != 1 || s.PlanCacheMisses != 2 {
		t.Errorf("stats = hits %d misses %d, want 1/2", s.PlanCacheHits, s.PlanCacheMisses)
	}
}

// parkingWrapper counts registrations (one Collections call each) and
// stamps every attribute's CountDistinct with the registration's number;
// the registration numbered parkAt blocks in its first AttributeStats
// call, after announcing itself on parked, until release is closed.
type parkingWrapper struct {
	wrapper.Wrapper
	parkAt  int64
	regs    atomic.Int64
	once    sync.Once
	parked  chan int64
	release chan struct{}
}

func (w *parkingWrapper) Collections() []string {
	w.regs.Add(1)
	return w.Wrapper.Collections()
}

func (w *parkingWrapper) AttributeStats(coll, attr string) (stats.AttributeStats, bool) {
	st, ok := w.Wrapper.AttributeStats(coll, attr)
	reg := w.regs.Load()
	if reg == w.parkAt {
		w.once.Do(func() {
			w.parked <- reg
			<-w.release
		})
	}
	st.CountDistinct = reg
	return st, ok
}

// TestConcurrentRegisterCollectsOffWriteLock: a registration asks its
// wrapper for statistics before it takes the serving write lock, so
// queries on the other wrappers complete while that pass is parked; and
// registrations run one at a time, so a second registration of the same
// wrapper neither reaches the wrapper while the first is collecting nor
// installs before it.
func TestConcurrentRegisterCollectsOffWriteLock(t *testing.T) {
	m := buildMediator(t, DefaultConfig())
	rel, _ := m.Wrapper("rel1")
	w := &parkingWrapper{Wrapper: rel, parkAt: 2, parked: make(chan int64, 1), release: make(chan struct{})}
	if err := m.Register(w); err != nil { // registration 1 does not park
		t.Fatal(err)
	}
	epoch := m.Catalog.Epoch()

	const wait = 10 * time.Second
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- m.Register(w) }()
	select {
	case <-w.parked:
	case <-time.After(wait):
		t.Fatal("registration 2 never reached AttributeStats")
	}
	queried := make(chan error, 1)
	go func() {
		for _, sql := range []string{`SELECT name FROM Employee WHERE id = 421`, `SELECT COUNT(*) FROM Notes`} {
			if _, err := m.Query(sql); err != nil {
				queried <- err
				return
			}
		}
		queried <- nil
	}()
	select {
	case err := <-queried:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(wait):
		t.Error("queries on obj1 and files waited behind a registration of rel1 collecting statistics")
	}
	go func() { second <- m.Register(w) }()
	// A registration rightly blocked signals nothing to wait on, so a
	// wrongly unblocked one gets 50 ms to reach the wrapper.
	time.Sleep(50 * time.Millisecond)
	if n := w.regs.Load(); n != 2 {
		t.Errorf("registration %d reached the wrapper while registration 2 was collecting", n)
	}
	close(w.release)
	for _, done := range []chan error{first, second} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(wait):
			t.Fatal("a registration did not finish after release")
		}
	}
	if got := m.Catalog.Epoch() - epoch; got != 2 {
		t.Errorf("two registrations moved the epoch by %d", got)
	}
	if ast, _ := m.Catalog.Attribute("rel1", "Dept", "dno"); ast.CountDistinct != 3 {
		t.Errorf("installed statistics are registration %d's, want the last serialized (3)", ast.CountDistinct)
	}
}
