// Package mediator assembles the full DISCO system of the paper: the
// registration phase (Figure 1 — wrappers upload schema, capabilities,
// statistics and cost rules into the catalog and the cost-model registry)
// and the query phase (Figure 2 — parse the declarative query, bind it
// against the catalog, optimize it with the blending cost model, execute
// it across the wrappers, and compose the answer).
package mediator

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/engine"
	"disco/internal/feedback"
	"disco/internal/history"
	"disco/internal/netsim"
	"disco/internal/optimizer"
	"disco/internal/resultcache"
	"disco/internal/sqlparser"
	"disco/internal/vexec"
	"disco/internal/wrapper"
)

// ErrStalePlan is returned by ExecutePlan when a prepared plan's catalog
// epoch no longer matches the federation and the plan carries no SQL
// text to re-prepare from.
var ErrStalePlan = errors.New("mediator: prepared plan is stale (federation changed since Prepare) and carries no SQL to re-prepare")

// Config sets up a mediator deployment.
type Config struct {
	// RecordHistory enables the §4.3.1 query-scope recorder.
	RecordHistory bool
	// UseWrapperRules controls whether registration integrates exported
	// cost rules (disabling it yields the generic-model-only baseline of
	// experiment E3).
	UseWrapperRules bool
	// Feedback enables the execution-feedback loop (DESIGN.md §8): every
	// executed query's per-operator actuals are joined against the
	// optimizer's predictions, per-scope q-error accumulators update, and
	// the adjuster refines catalog statistics toward the observations. Off
	// by default: with feedback disabled the mediator's plans and estimates
	// are bit-identical to a build without the subsystem.
	Feedback bool
	// FeedbackStore, when set with Feedback, persists learned corrections
	// across restarts. The snapshot loads at construction; saves are
	// debounced over feedback.DefaultSaveInterval (absorbed executions
	// inside the window coalesce into one deferred save, written by the
	// first absorption past the window or by Close).
	FeedbackStore feedback.Store
	// PlanCacheSize bounds the prepared-plan cache in entries. Zero uses
	// DefaultPlanCacheSize; negative disables caching. Cached plans are
	// invalidated by catalog epoch (any re-registration), by wrapper
	// outages, and by feedback corrections.
	PlanCacheSize int
	// ResultCache configures the semantic result cache
	// (internal/resultcache): whole-plan answers keyed by the prepared
	// plan's 128-bit structural hash, looked up and admitted only when a
	// prepared plan executes. The cache never changes a chosen plan. Off
	// by default (the zero value); a disabled cache leaves results
	// bit-identical to a build without the subsystem. Entries are
	// invalidated by catalog epoch bumps, wrapper outage marks and
	// feedback adjustments — the same hooks that clear the plan cache —
	// and Result.Partial answers are never admitted.
	ResultCache resultcache.Config
	// MaxInFlight caps concurrently admitted queries (Query, ExecutePlan,
	// Explain, ExplainAnalyze). Zero means unlimited. Excess callers
	// queue for AdmissionTimeout and are then shed with ErrOverloaded.
	MaxInFlight int
	// AdmissionTimeout bounds the admission queue wait. Zero waits
	// indefinitely (no shedding); negative sheds immediately when
	// MaxInFlight queries are in flight.
	AdmissionTimeout time.Duration
	// ExecMemBytes bounds the memory a mediator-side hash join build or
	// aggregation input may hold before Grace-spilling to disk. Zero
	// disables spilling.
	ExecMemBytes int64
	// ExecSpillDir is where spill partitions are written ("" uses the
	// OS temp dir).
	ExecSpillDir string
}

// DefaultConfig enables wrapper rules and history.
func DefaultConfig() Config {
	return Config{
		RecordHistory:   true,
		UseWrapperRules: true,
	}
}

// Mediator is one running mediator instance. It is safe for concurrent
// use: queries, explains and plan executions run in parallel under a
// read lock, while installing a (re-)registration and feedback
// absorption take the write lock and drain in-flight queries first. A
// registration asks its wrapper for statistics before that, under regMu
// alone.
//
// Lock order (outermost first): regMu → mu → downMu → inner package locks
// (registry, recorder, adjuster, cache, buffer pools). The down-marks
// live under their own mutex because sources fail DURING read-locked
// execution — the engine's outage callback cannot upgrade to the write
// lock without deadlocking behind its own read hold.
type Mediator struct {
	cfg Config

	// regMu serializes Register: one registration collects and installs
	// before the next begins, so entries install in the order their
	// collections ran.
	regMu sync.Mutex
	// mu is the serving lock. Read side: Prepare, Query, ExecutePlan,
	// Explain, ExplainAnalyze, accessors. Write side: Register's install,
	// feedback absorption, Close.
	mu sync.RWMutex
	// downMu guards unavailable; see the lock-order note above.
	downMu sync.Mutex

	// Net is the communication model, a uniform link of 10 ms latency
	// and 2 MB/s.
	Net      *netsim.Network
	Catalog  *catalog.Catalog
	Registry *core.Registry
	// Estimator is the template estimator holding the calibrated globals
	// and default options; every prepare clones it, so concurrent
	// searches never share scratch state. Mutate it only while no
	// queries are in flight (calibration, setup).
	Estimator *core.Estimator
	// Optimizer is an instance over the template estimator for tools and
	// tests. Its Opt are the options every prepare searches with
	// (optimizer.DefaultOptions, plus CapturePlanCosts when the feedback
	// loop consumes per-node predictions); like Estimator, change them
	// only while no queries are in flight. The serving path builds a
	// per-call optimizer from a clone.
	Optimizer *optimizer.Optimizer
	Engine    *engine.Engine
	History   *history.Recorder
	// Feedback and Adjuster are the execution-feedback loop (nil unless
	// Config.Feedback).
	Feedback *feedback.Recorder
	Adjuster *feedback.Adjuster
	// LastReport is the feedback report of the most recently executed
	// query (nil until one runs, or when feedback is off). Guarded by mu.
	LastReport *feedback.Report

	wrappers map[string]wrapper.Wrapper
	// unavailable records wrappers that exhausted the transport's
	// self-healing (engine submits failed with wrapper.ErrUnavailable).
	// Their collections are excluded from answers (partial results),
	// binding prefers surviving owners, and their cost rules are dropped
	// so estimation falls back to the generic calibrated model — the
	// paper's behaviour for sources that are only partially registered.
	unavailable map[string]bool

	cache *planCache
	// rcache is the semantic result cache (nil unless
	// Config.ResultCache.Enabled). Internally synchronized like the plan
	// cache: it is read and written from the read-locked query path.
	rcache     *resultcache.Cache
	adm        *admission
	deb        *feedback.Debouncer
	reprepares atomic.Int64
	// Serving outcome counters (see Stats).
	served   atomic.Int64
	qerrors  atomic.Int64
	partials atomic.Int64
}

// New builds an empty mediator.
func New(cfg Config) (*Mediator, error) {
	net := netsim.NewNetwork(netsim.Link{LatencyMS: 10, PerByteMS: 0.0005})
	reg, err := core.NewDefaultRegistry()
	if err != nil {
		return nil, err
	}
	opt := optimizer.DefaultOptions()
	// The feedback recorder joins per-node predictions against actuals,
	// so it needs the final costing of every chosen plan to capture all
	// variables.
	opt.CapturePlanCosts = cfg.Feedback
	m := &Mediator{
		cfg:         cfg,
		Net:         net,
		Catalog:     catalog.New(),
		Registry:    reg,
		wrappers:    make(map[string]wrapper.Wrapper),
		unavailable: make(map[string]bool),
		cache:       newPlanCache(cfg.PlanCacheSize),
		rcache:      resultcache.New(cfg.ResultCache),
		adm:         newAdmission(cfg.MaxInFlight, cfg.AdmissionTimeout),
	}
	m.Estimator = core.NewEstimator(reg, m.Catalog, net)
	m.Optimizer = optimizer.New(m.Catalog, m.Estimator, opt)
	if cfg.RecordHistory {
		m.History = history.NewRecorder(reg)
	}
	if cfg.Feedback {
		m.Feedback = feedback.NewRecorder(0)
		m.Adjuster = feedback.NewAdjuster()
		if cfg.FeedbackStore != nil {
			// A missing or corrupt snapshot loads as empty; persisted
			// corrections are an optimization, never a startup gate.
			snap, err := cfg.FeedbackStore.Load()
			if err != nil {
				return nil, err
			}
			feedback.Restore(snap, m.Feedback, m.Adjuster)
			m.deb = feedback.NewDebouncer(cfg.FeedbackStore, feedback.DefaultSaveInterval)
		}
	}
	m.rebuildEngine()
	return m, nil
}

// rebuildEngine publishes a fresh engine over the current wrapper set;
// the caller holds the write lock (or is still constructing). Superseded
// engines keep serving in-flight executions safely: engine.New snapshots
// the wrapper map.
func (m *Mediator) rebuildEngine() {
	eng := engine.New(m.Net, m.wrappers)
	eng.Exec = vexec.Options{
		MemBytes: m.cfg.ExecMemBytes,
		SpillDir: m.cfg.ExecSpillDir,
	}
	if m.History != nil {
		rec := m.History
		eng.SubmitHook = func(submit *algebra.Node, elapsed float64, rows int, bytes int64) {
			// Recording failures must not fail queries.
			_ = rec.Record(submit, elapsed, int64(rows), bytes)
		}
	}
	eng.OnUnavailable = m.markUnavailable
	m.Engine = eng
}

// markUnavailable degrades the mediator after a source outage: the
// wrapper's collections stop being preferred at bind time, its
// wrapper-specific cost rules are dropped so estimation over surviving
// copies falls back to the generic calibrated model, and cached plans —
// which may still route subqueries to the dead source — are invalidated.
// Called from engine callbacks while the read lock is held; it must not
// touch mu.
func (m *Mediator) markUnavailable(name string) {
	m.downMu.Lock()
	if m.unavailable[name] {
		m.downMu.Unlock()
		return
	}
	m.unavailable[name] = true
	m.downMu.Unlock()
	m.Registry.DropWrapper(name)
	m.cache.clear()
	// Results computed against the now-dead source are suspect, and the
	// generation bump refuses inserts from executions that raced this
	// outage — a Partial answer in flight can never seed the cache.
	m.rcache.Invalidate()
}

// downedSnapshot copies the down-mark set for one bind pass.
func (m *Mediator) downedSnapshot() map[string]bool {
	m.downMu.Lock()
	defer m.downMu.Unlock()
	if len(m.unavailable) == 0 {
		return nil
	}
	out := make(map[string]bool, len(m.unavailable))
	for n, v := range m.unavailable {
		out[n] = v
	}
	return out
}

// Register runs the registration phase for one wrapper: catalog upload
// plus cost-rule integration (paper Figure 1). Re-registering a name
// replaces its catalog entry and rules (the paper's administrative
// re-registration interface). Registrations run one at a time under
// regMu. The wrapper is asked for its schemas and statistics, and its
// cost rules are parsed, before the write lock is taken, so queries keep
// being served during that pass; the write lock is held only to install
// the entry — draining in-flight queries, bumping the catalog epoch
// (invalidating every cached plan) and publishing a fresh engine.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	m.regMu.Lock()
	defer m.regMu.Unlock()
	e, err := catalog.Collect(w)
	if err != nil {
		return err
	}
	var rules *costlang.File
	if m.cfg.UseWrapperRules && e.CostRules != "" {
		if rules, err = costlang.Parse(e.CostRules); err != nil {
			return fmt.Errorf("mediator: parsing %s cost rules: %w", e.Name, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Catalog.Install(e)
	m.Registry.DropWrapper(e.Name)
	if rules != nil {
		if err := m.Registry.IntegrateWrapper(e.Name, rules, m.Catalog); err != nil {
			return fmt.Errorf("mediator: integrating %s cost rules: %w", e.Name, err)
		}
	}
	m.wrappers[w.Name()] = w
	// (Re-)registration revives a wrapper previously marked unavailable:
	// the rebuilt engine starts with clean down-marks and the rules just
	// integrated above are live again.
	m.downMu.Lock()
	delete(m.unavailable, w.Name())
	m.downMu.Unlock()
	if m.Adjuster != nil {
		// Learned cardinality corrections outlive registrations: the fresh
		// entry becomes the new correction base and the factor re-applies.
		m.Adjuster.Reapply(m.Catalog)
	}
	m.cache.clear()
	// The epoch bump already invalidates lookups; an explicit clear
	// releases the memory eagerly and voids raced inserts too.
	m.rcache.Invalidate()
	m.rebuildEngine()
	return nil
}

// Wrapper returns a registered wrapper.
func (m *Mediator) Wrapper(name string) (wrapper.Wrapper, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	w, ok := m.wrappers[name]
	return w, ok
}

// Prepared is a bound and optimized query ready for execution. Prepared
// values may be shared by concurrent executions (the plan cache hands
// the same instance to every hit) and must not be mutated.
type Prepared struct {
	SQL   string
	Query *sqlparser.Query
	Block *optimizer.QueryBlock
	Plan  *algebra.Node
	Cost  *core.PlanCost
	// PlansCosted reports the optimizer's search effort.
	PlansCosted int
	// Epoch is the catalog epoch the plan was built under; ExecutePlan
	// re-prepares (or rejects) plans whose epoch no longer matches.
	Epoch uint64
	// Hash is the 128-bit structural hash of the chosen plan, the key of
	// its whole-plan result-cache entry. Computing it at prepare time also
	// fills every descendant's hash cache before the plan is shared:
	// concurrent executions of one plan then only read the cached hashes
	// when the history recorder hashes their submits.
	Hash algebra.Hash128
}

// Prepare parses, binds and optimizes a query, serving repeated
// statements from the bounded plan cache.
func (m *Mediator) Prepare(sql string) (*Prepared, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.prepareCached(sql)
}

// prepareCached serves sql from the plan cache or plans it fresh and
// caches the result. Callers hold the read lock.
func (m *Mediator) prepareCached(sql string) (*Prepared, error) {
	key := NormalizeSQL(sql)
	epoch := m.Catalog.Epoch()
	if p, ok := m.cache.get(key, epoch); ok {
		return p, nil
	}
	// An outage mark may clear the cache while this prepare plans; gen
	// makes put drop the plan it priced before the mark.
	gen := m.cache.generation()
	p, _, err := m.prepareLocked(sql, false, false)
	if err != nil {
		return nil, err
	}
	m.cache.put(key, p, gen)
	return p, nil
}

// prepareLocked plans one statement on private optimizer state: the
// template estimator is cloned and a per-call optimizer built over the
// clone, so concurrent prepares never share options, scratch arenas or
// pruning budgets. Callers hold the read lock (or the write lock).
// trace enables per-node estimation traces (Explain); capture forces a
// full per-node variable capture (ExplainAnalyze). The estimator used
// is returned for renderers that need it.
func (m *Mediator) prepareLocked(sql string, trace, capture bool) (*Prepared, *core.Estimator, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	block, err := m.bind(q)
	if err != nil {
		return nil, nil, err
	}
	est := m.Estimator.Clone()
	est.Reset()
	est.Options.Trace = trace
	opts := m.Optimizer.Opt
	if capture {
		opts.CapturePlanCosts = true
	}
	res, err := optimizer.New(m.Catalog, est, opts).Optimize(block)
	if err != nil {
		return nil, nil, err
	}
	return &Prepared{
		SQL:         sql,
		Query:       q,
		Block:       block,
		Plan:        res.Plan,
		Cost:        res.Cost,
		PlansCosted: res.PlansCosted,
		Epoch:       m.Catalog.Epoch(),
		Hash:        res.Plan.StructuralHash(),
	}, est, nil
}

// Query runs the full pipeline: admission, prepare (cache-aware), then
// execute. With feedback enabled the execution is absorbed into the
// model before returning.
func (m *Mediator) Query(sql string) (*engine.Result, error) {
	if err := m.adm.acquire(); err != nil {
		return nil, err
	}
	defer m.adm.release()
	p, err := m.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return m.executeAdmitted(p)
}

// Warm primes the caches for a statement without a client waiting on
// the answer: it prepares sql (populating the plan cache) and, when the
// result cache is enabled but holds no live entry for the plan, executes
// it once to seed the answer. The returned bool reports whether an
// execution ran (false = the plan alone was warmed, or the result was
// already cached). Warming goes through admission like any query so a
// gossip-driven warm storm cannot starve real clients.
func (m *Mediator) Warm(sql string) (bool, error) {
	if err := m.adm.acquire(); err != nil {
		return false, err
	}
	defer m.adm.release()
	p, err := m.Prepare(sql)
	if err != nil {
		return false, err
	}
	if m.rcache == nil || m.rcache.Peek(p.Hash, p.Epoch) {
		return false, nil
	}
	if _, err := m.executeAdmitted(p); err != nil {
		return false, err
	}
	return true, nil
}

// ExecutePlan executes a previously prepared plan, feeding the actuals
// back into the model when feedback is enabled. A plan prepared under an
// older catalog epoch is transparently re-prepared from its SQL text
// (ErrStalePlan when it has none): plans never execute against a
// federation they were not costed for.
func (m *Mediator) ExecutePlan(p *Prepared) (*engine.Result, error) {
	if err := m.adm.acquire(); err != nil {
		return nil, err
	}
	defer m.adm.release()
	return m.executeAdmitted(p)
}

// executeAdmitted runs a prepared plan under the read lock. The lock is
// held across execution, so a registration (write lock) drains every
// in-flight query first and a plan can never run concurrently with the
// federation change that would invalidate it.
func (m *Mediator) executeAdmitted(p *Prepared) (*engine.Result, error) {
	m.mu.RLock()
	if p == nil || p.Plan == nil {
		m.mu.RUnlock()
		return nil, fmt.Errorf("mediator: ExecutePlan needs a prepared plan")
	}
	if p.Epoch != m.Catalog.Epoch() {
		if p.SQL == "" {
			m.mu.RUnlock()
			return nil, ErrStalePlan
		}
		fresh, err := m.prepareCached(p.SQL)
		if err != nil {
			m.mu.RUnlock()
			return nil, fmt.Errorf("mediator: re-preparing stale plan: %w", err)
		}
		m.reprepares.Add(1)
		p = fresh
	}
	if m.rcache != nil {
		if e, ok := m.rcache.Get(p.Hash, p.Epoch); ok {
			// Whole-plan hit: serve the materialized answer at the
			// cache's lookup time (resultcache.HitCostMS). No profile is
			// attached — there is nothing here the feedback loop should
			// learn source behaviour from.
			res := &engine.Result{Rows: e.Rows, Schema: e.Schema, ElapsedMS: resultcache.HitCostMS(int64(len(e.Rows)))}
			m.mu.RUnlock()
			m.served.Add(1)
			return res, nil
		}
	}
	gen := m.rcache.Gen()
	eng := m.Engine
	res, err := eng.Execute(p.Plan)
	if err == nil && res != nil && !res.Partial && m.rcache != nil {
		// Admit the complete answer under the read lock (no registration
		// can interleave, so the epoch stamp is the one the plan ran
		// under). Partial answers are refused here, and gen — snapshotted
		// before execution — voids the insert if an outage mark or
		// feedback adjustment invalidated the cache mid-run.
		m.rcache.Put(p.Hash, res.Rows, res.Schema, p.Epoch, gen)
	}
	m.mu.RUnlock()
	if err != nil {
		m.qerrors.Add(1)
	} else {
		m.served.Add(1)
		if res != nil && res.Partial {
			m.partials.Add(1)
		}
	}
	if err == nil && m.Feedback != nil {
		m.mu.Lock()
		m.absorbLocked(p, res)
		m.mu.Unlock()
	}
	return res, err
}

// absorbLocked closes the feedback loop for one execution: the profile
// is joined against the plan's predicted costs, q-error accumulators
// update, the adjuster refines catalog statistics, and the
// snapshot save is scheduled (debounced). Callers hold the write lock.
// Returns the joined report (nil when feedback is off or the run carries
// no usable profile).
func (m *Mediator) absorbLocked(p *Prepared, res *engine.Result) *feedback.Report {
	if m.Feedback == nil || p == nil || p.Cost == nil || res == nil || res.Profile == nil {
		return nil
	}
	rep := m.Feedback.Observe(p.Plan, p.Cost, res.Profile)
	m.LastReport = rep
	if m.Adjuster != nil {
		if adj := m.Adjuster.Apply(rep, m.Catalog); len(adj) > 0 {
			// The corrections changed the statistics cached plans were
			// costed against; drop them so the next prepare re-plans. A
			// statistics fix also means observations contradicted the
			// model, so materialized results go too: re-executing is the
			// conservative move.
			m.cache.clear()
			m.rcache.Invalidate()
		}
	}
	if m.deb != nil {
		// Persisting corrections must never fail the query that produced
		// them; a failed save means relearning after the next restart.
		_ = m.deb.Mark(func() *feedback.Snapshot {
			return feedback.Capture(m.Feedback, m.Adjuster)
		})
	}
	return rep
}

// Close flushes deferred state — the debounced feedback snapshot — so
// shutdown never loses absorbed executions. The mediator remains usable
// afterwards.
func (m *Mediator) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.deb != nil {
		return m.deb.Flush()
	}
	return nil
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// PlanCacheHits/Misses/Stale count cache lookups; Stale is the
	// subset of misses caused by a catalog epoch bump.
	PlanCacheHits   int64
	PlanCacheMisses int64
	PlanCacheStale  int64
	// PlanCacheEntries is the current cache population.
	PlanCacheEntries int
	// Result-cache counters (all zero when Config.ResultCache is
	// disabled). Hits and misses count whole-plan lookups; Stale is the
	// miss subset evicted by an epoch bump. Evictions counts budget
	// displacements, Invalidations whole-cache clears (registration,
	// outage, feedback adjustment), Rejected refused inserts (raced
	// invalidations, over-budget results).
	ResultCacheHits          int64
	ResultCacheMisses        int64
	ResultCacheStale         int64
	ResultCacheEvictions     int64
	ResultCacheInvalidations int64
	ResultCacheRejected      int64
	// ResultCacheEntries/Bytes are the current population and its
	// estimated memory footprint.
	ResultCacheEntries int
	ResultCacheBytes   int64
	// Reprepares counts stale plans transparently re-planned by
	// ExecutePlan.
	Reprepares int64
	// Shed counts queries rejected by admission control.
	Shed int64
	// InFlight is the number of currently admitted queries (0 when
	// admission control is off).
	InFlight int
	// FeedbackSaves counts snapshot writes that reached the store.
	FeedbackSaves int64
	// QueriesServed counts executions that completed successfully
	// (partial answers included); QueryErrors counts executions that
	// failed. Neither includes shed queries or prepare-time failures.
	QueriesServed int64
	QueryErrors   int64
	// PartialAnswers is the subset of QueriesServed that excluded one or
	// more unavailable wrappers.
	PartialAnswers int64
	// Epoch is the catalog registration epoch at snapshot time.
	Epoch uint64
}

// Stats reports the serving counters. It takes the read lock briefly
// for the catalog epoch, so it serializes against registrations.
func (m *Mediator) Stats() Stats {
	m.mu.RLock()
	epoch := m.Catalog.Epoch()
	m.mu.RUnlock()
	h, mi, st := m.cache.counters()
	rc := m.rcache.Counters()
	s := Stats{
		PlanCacheHits:    h,
		PlanCacheMisses:  mi,
		PlanCacheStale:   st,
		PlanCacheEntries: m.cache.len(),

		ResultCacheHits:          rc.Hits,
		ResultCacheMisses:        rc.Misses,
		ResultCacheStale:         rc.Stale,
		ResultCacheEvictions:     rc.Evictions,
		ResultCacheInvalidations: rc.Invalidations,
		ResultCacheRejected:      rc.Rejected,
		ResultCacheEntries:       rc.Entries,
		ResultCacheBytes:         rc.Bytes,

		Reprepares:     m.reprepares.Load(),
		Shed:           m.adm.shedCount(),
		InFlight:       m.adm.inFlight(),
		QueriesServed:  m.served.Load(),
		QueryErrors:    m.qerrors.Load(),
		PartialAnswers: m.partials.Load(),
		Epoch:          epoch,
	}
	if m.deb != nil {
		s.FeedbackSaves = m.deb.Saves()
	}
	return s
}

// Explain renders the chosen plan with its cost annotations. Explains
// bypass the plan cache: the trace must come from a fresh estimation.
func (m *Mediator) Explain(sql string) (string, error) {
	if err := m.adm.acquire(); err != nil {
		return "", err
	}
	defer m.adm.release()
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, est, err := m.prepareLocked(sql, true, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s\n", sql)
	fmt.Fprintf(&b, "-- estimated TotalTime: %.3f ms (%d candidate estimations)\n",
		p.Cost.TotalTime(), p.PlansCosted)
	b.WriteString(est.Explain(p.Plan, p.Cost))
	return b.String(), nil
}

// ExplainAnalyze prepares, executes and renders a query's plan tree with
// each node annotated `est=… act=… q=…` — the estimator's predicted
// cardinality and subtree time against the measured actuals, with their
// q-errors. Operators below a submit execute opaquely inside the wrapper
// and show estimates only; an excluded submit (unavailable wrapper) is
// marked. With feedback enabled the execution is absorbed into the model
// like any other query. Bypasses the plan cache: the rendering needs a
// private plan with a full per-node variable capture.
func (m *Mediator) ExplainAnalyze(sql string) (string, error) {
	if err := m.adm.acquire(); err != nil {
		return "", err
	}
	defer m.adm.release()
	m.mu.RLock()
	p, _, err := m.prepareLocked(sql, false, true)
	if err != nil {
		m.mu.RUnlock()
		return "", err
	}
	eng := m.Engine
	res, err := eng.Execute(p.Plan)
	m.mu.RUnlock()
	if err != nil {
		return "", err
	}
	if m.Feedback != nil {
		m.mu.Lock()
		m.absorbLocked(p, res)
		m.mu.Unlock()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s\n", sql)
	fmt.Fprintf(&b, "-- estimated TotalTime: %.3f ms, actual: %.3f ms (q=%.2f), %d rows",
		p.Cost.TotalTime(), res.ElapsedMS,
		feedback.QError(p.Cost.TotalTime(), res.ElapsedMS, 0.01), len(res.Rows))
	if res.Partial {
		fmt.Fprintf(&b, " [PARTIAL: excluded %s]", strings.Join(res.Excluded, ", "))
	}
	b.WriteByte('\n')
	renderAnalyze(&b, p.Plan, 0, p.Cost, res.Profile)
	return b.String(), nil
}

// renderAnalyze prints one node of the annotated plan tree and recurses.
func renderAnalyze(b *strings.Builder, n *algebra.Node, depth int, pc *core.PlanCost, prof *feedback.Profile) {
	indent := strings.Repeat("  ", depth)
	head := strings.TrimSpace(strings.SplitN(n.String(), "\n", 2)[0])
	fmt.Fprintf(b, "%s%s", indent, head)
	est, okE := pc.ByNode[n]
	act, okA := prof.Actual(n)
	switch {
	case okE && okA && act.Excluded:
		fmt.Fprintf(b, "  est=%.4g rows %.4g ms  act: EXCLUDED (wrapper %s unavailable)",
			est.Var("CountObject", 0), est.TotalTime(), act.Wrapper)
	case okE && okA:
		fmt.Fprintf(b, "  est=%.4g act=%d q=%.2f rows | est=%.4g act=%.4g q=%.2f ms",
			est.Var("CountObject", 0), act.RowsOut,
			feedback.QError(est.Var("CountObject", 0), float64(act.RowsOut), 1),
			est.TotalTime(), act.SubtreeMS,
			feedback.QError(est.TotalTime(), act.SubtreeMS, 0.01))
		if n.Kind == algebra.OpSubmit {
			fmt.Fprintf(b, " | %d round-trip(s) %d B", act.RoundTrips, act.Bytes)
		}
	case okE:
		fmt.Fprintf(b, "  est=%.4g rows %.4g ms (wrapper-resident: no actuals)",
			est.Var("CountObject", 0), est.TotalTime())
	case okA:
		fmt.Fprintf(b, "  act=%d rows %.4g ms", act.RowsOut, act.SubtreeMS)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		renderAnalyze(b, c, depth+1, pc, prof)
	}
}

// FeedbackSummary renders the execution-feedback state: the per-scope
// q-error table and the learned extent corrections. It errors when
// feedback is disabled.
func (m *Mediator) FeedbackSummary() (string, error) {
	if m.Feedback == nil || m.Adjuster == nil {
		return "", fmt.Errorf("mediator: feedback is disabled (Config.Feedback)")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var b strings.Builder
	b.WriteString(m.Feedback.Summary())
	if corr := m.Adjuster.Corrections(); len(corr) > 0 {
		b.WriteString("\nextent corrections:\n")
		for _, c := range corr {
			fmt.Fprintf(&b, "  %s/%s: claimed %d x %.4g (%d samples)\n",
				c.Wrapper, c.Collection, c.Base, c.Factor, c.Samples)
		}
	}
	return b.String(), nil
}

// bind resolves a parsed query against the catalog into an optimizer
// query block (the paper's step "transforms the query, written with
// respect to a global view, into a query over local schemas"). Callers
// hold at least the read lock.
func (m *Mediator) bind(q *sqlparser.Query) (*optimizer.QueryBlock, error) {
	down := m.downedSnapshot()
	rels := make([]optimizer.Rel, 0, len(q.From))
	for i, tr := range q.From {
		// There are no aliases: attributes and join conjuncts name their
		// relation by collection, so a collection named twice would bind
		// each conjunct to its first copy.
		for _, prev := range q.From[:i] {
			if strings.EqualFold(prev.Collection, tr.Collection) {
				return nil, fmt.Errorf("mediator: collection %q appears twice in FROM; a query names each collection once", tr.Collection)
			}
		}
		wrapperName := tr.Wrapper
		if wrapperName == "" {
			owners := m.Catalog.FindCollection(tr.Collection)
			// Prefer surviving owners: a replica at a live wrapper
			// disambiguates away the dead ones. Only when no owner is
			// alive does the unfiltered list apply (the engine will then
			// return a partial answer with the dead wrapper excluded).
			if alive := availableOwners(owners, down); len(alive) > 0 {
				owners = alive
			}
			switch len(owners) {
			case 0:
				return nil, fmt.Errorf("mediator: unknown collection %q", tr.Collection)
			case 1:
				wrapperName = owners[0]
			default:
				return nil, fmt.Errorf("mediator: collection %q exists at several wrappers (%s); pin one with %s@wrapper",
					tr.Collection, strings.Join(owners, ", "), tr.Collection)
			}
		} else if !m.Catalog.HasCollection(wrapperName, tr.Collection) {
			return nil, fmt.Errorf("mediator: unknown collection %s@%s", tr.Collection, wrapperName)
		}
		rels = append(rels, optimizer.Rel{Wrapper: wrapperName, Collection: tr.Collection})
	}

	rels, joins, err := optimizer.SplitPredicate(m.Catalog, rels, q.Where)
	if err != nil {
		return nil, err
	}
	block := &optimizer.QueryBlock{
		Relations: rels,
		JoinPreds: joins,
		Distinct:  q.Distinct,
		Sort:      q.OrderBy,
	}

	// Select list: aggregates switch the block into grouping mode.
	hasAgg := false
	for _, it := range q.Items {
		if it.Agg != nil {
			hasAgg = true
		}
	}
	if hasAgg {
		block.GroupBy = q.GroupBy
		for _, it := range q.Items {
			switch {
			case it.Agg != nil:
				block.Aggs = append(block.Aggs, *it.Agg)
			case it.Star:
				return nil, fmt.Errorf("mediator: cannot mix * with aggregates")
			default:
				if !inGroupBy(q.GroupBy, it.Ref) {
					return nil, fmt.Errorf("mediator: %s must appear in GROUP BY", it.Ref)
				}
			}
		}
	} else {
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("mediator: GROUP BY without aggregates")
		}
		star := false
		var cols []string
		for _, it := range q.Items {
			if it.Star {
				star = true
				continue
			}
			cols = append(cols, it.Ref.String())
		}
		if star && len(cols) > 0 {
			return nil, fmt.Errorf("mediator: cannot mix * with named columns")
		}
		if !star {
			block.Projection = cols
		}
	}
	return block, nil
}

// availableOwners filters a FindCollection result down to live wrappers.
func availableOwners(owners []string, unavailable map[string]bool) []string {
	if len(unavailable) == 0 {
		return owners
	}
	out := make([]string, 0, len(owners))
	for _, o := range owners {
		if !unavailable[o] {
			out = append(out, o)
		}
	}
	return out
}

func inGroupBy(groupBy []algebra.Ref, r algebra.Ref) bool {
	for _, g := range groupBy {
		if strings.EqualFold(g.Attr, r.Attr) &&
			(g.Collection == "" || r.Collection == "" || strings.EqualFold(g.Collection, r.Collection)) {
			return true
		}
	}
	return false
}
