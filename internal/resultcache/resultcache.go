// Package resultcache is the mediator's semantic result cache: a
// bounded, byte-budgeted LRU of materialized answers keyed by the 128-bit
// incremental structural hash of the prepared plan that produced them
// (internal/algebra). The plan cache caches *plans*; this caches
// *answers* — a repeated zipf-hot statement is served from mediator
// memory instead of re-submitting to the wrappers. The mediator reads
// and writes it in one place, around a prepared plan's execution; the
// optimizer never sees it, so a cached answer never changes a chosen
// plan.
//
// Correctness rests on three invalidation signals, the exact hooks the
// prepared-plan cache already uses:
//
//   - catalog epoch: every entry remembers the registration epoch it was
//     computed under; a lookup against a newer epoch evicts it (any
//     re-registration may have changed the data behind the answer).
//   - outage marks and feedback adjustments: the mediator calls
//     Invalidate, which clears the cache AND bumps a generation token.
//   - partial answers: results produced while a wrapper was down are
//     never admitted (the mediator refuses Result.Partial, and Put
//     rejects inserts whose generation predates an invalidation — an
//     execution that raced an outage cannot slip its rows in afterwards).
//
// There is no time-based expiry: the served stores change only through
// registration, which the epoch already retires, so an entry lives until
// one of these signals or the LRU budget removes it.
//
// The zero Config disables the cache entirely (New returns nil, every
// method is nil-receiver-safe), preserving the bit-identical-when-
// disabled discipline of the feedback and fault subsystems.
package resultcache

import (
	"container/list"
	"sync"

	"disco/internal/algebra"
	"disco/internal/types"
)

// Defaults for enabled caches that leave a knob zero.
const (
	// DefaultEntries bounds the entry count when Config.Entries is 0.
	DefaultEntries = 1024
	// DefaultMaxBytes bounds the total materialized volume when
	// Config.MaxBytes is 0 (64 MiB of estimated row bytes).
	DefaultMaxBytes = 64 << 20
)

// HitFloorMS and HitPerRowMS price serving a cached answer: a fixed
// in-memory lookup floor plus one touch per row. A whole-plan hit
// reports this time as the answer's elapsed time, in place of the
// sources' and the wire's.
const (
	HitFloorMS  = 0.05
	HitPerRowMS = 0.0002
)

// HitCostMS is the virtual time of serving a cached answer of rows rows.
func HitCostMS(rows int64) float64 {
	return HitFloorMS + float64(rows)*HitPerRowMS
}

// Config sizes the cache. The zero value disables it.
type Config struct {
	// Enabled turns the cache on. Off by default: a disabled cache is
	// bit-identical to a build without the subsystem.
	Enabled bool
	// Entries bounds the number of cached results (0 = DefaultEntries).
	Entries int
	// MaxBytes budgets the total estimated row bytes held
	// (0 = DefaultMaxBytes). A single result larger than the budget is
	// never admitted.
	MaxBytes int64
}

// Entry is one cached materialization.
type Entry struct {
	// Rows is the materialized result. Shared with every hit — callers
	// must never mutate rows served from the cache (the engine's row
	// operators never mutate their inputs, and sorts copy first).
	Rows   []types.Row
	Schema *types.Schema
	// Epoch is the catalog registration epoch the result was computed
	// under.
	Epoch uint64
	// Bytes is the estimated memory footprint charged to the budget.
	Bytes int64

	hash algebra.Hash128
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits/Misses count lookups; Stale is the subset of misses that also
	// evicted an entry after an epoch bump. Like the plan cache, a stale
	// lookup counts as exactly one miss and one stale.
	Hits   int64
	Misses int64
	Stale  int64
	// Evictions counts entries displaced by the entry or byte budget;
	// Invalidations counts whole-cache clears (epoch-independent hooks:
	// outage marks, feedback adjustments, registrations).
	Evictions     int64
	Invalidations int64
	// Rejected counts refused inserts: partial-raced generations and
	// over-budget results.
	Rejected int64
	// Entries/Bytes are the current population and charged volume.
	Entries int
	Bytes   int64
}

// Cache is the semantic result cache. All methods are safe for
// concurrent use and safe on a nil receiver (the disabled state).
type Cache struct {
	mu  sync.Mutex
	cfg Config

	lru   *list.List // of *Entry, front = most recent
	byKey map[algebra.Hash128]*list.Element
	bytes int64
	// gen is the invalidation generation: bumped by Invalidate so an
	// insert whose execution started before the invalidation (Put carries
	// the generation observed at execution start) is rejected.
	gen uint64

	hits, misses, stale      int64
	evictions, invalidations int64
	rejected                 int64
}

// New builds a cache, or returns nil when cfg.Enabled is false — the
// nil cache is the disabled subsystem and every method no-ops on it.
func New(cfg Config) *Cache {
	if !cfg.Enabled {
		return nil
	}
	if cfg.Entries <= 0 {
		cfg.Entries = DefaultEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		cfg:   cfg,
		lru:   list.New(),
		byKey: make(map[algebra.Hash128]*list.Element, cfg.Entries),
	}
}

// Gen returns the current invalidation generation. Callers snapshot it
// before executing a plan and pass it to Put: if an invalidation (outage
// mark, feedback adjustment) lands in between, the insert is refused —
// the result may reflect the state the invalidation retired.
func (c *Cache) Gen() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Get returns the cached result for hash if it was computed under the
// given catalog epoch. An epoch-stale entry is evicted on sight,
// counting one miss and one stale.
func (c *Cache) Get(hash algebra.Hash128, epoch uint64) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*Entry)
	if e.Epoch != epoch {
		c.removeLocked(el)
		c.stale++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e, true
}

// Peek reports whether a live (right-epoch) entry exists for
// hash without touching the counters, the LRU order, or stale entries.
// Cache warmers use it to decide whether a statement still needs to be
// executed; a Peek is invisible to the hit/miss accounting so warming
// does not distort the measured hit rate.
func (c *Cache) Peek(hash algebra.Hash128, epoch uint64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[hash]
	if !ok {
		return false
	}
	return el.Value.(*Entry).Epoch == epoch
}

// Put stores a materialized result, charged ApproxBytes(rows) against the
// byte budget, evicting least-recently-used entries until both budgets
// hold. gen must be the value Gen returned before the execution that
// produced rows started; a mismatch means an invalidation raced the
// execution and the insert is refused. Results larger than the byte
// budget are refused rather than flushing the whole cache. The rows slice
// is owned by the cache after Put — callers must not append to or mutate
// it.
func (c *Cache) Put(hash algebra.Hash128, rows []types.Row, schema *types.Schema, epoch, gen uint64) {
	if c == nil {
		return
	}
	bytes := ApproxBytes(rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || bytes > c.cfg.MaxBytes {
		c.rejected++
		return
	}
	if el, ok := c.byKey[hash]; ok {
		// Replace in place (an epoch-stale entry being refreshed).
		c.removeLocked(el)
		c.evictions--
	}
	for c.lru.Len() >= c.cfg.Entries || c.bytes+bytes > c.cfg.MaxBytes {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
	e := &Entry{Rows: rows, Schema: schema, Epoch: epoch, Bytes: bytes, hash: hash}
	c.byKey[hash] = c.lru.PushFront(e)
	c.bytes += bytes
}

// removeLocked unlinks one element and counts an eviction.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	c.lru.Remove(el)
	delete(c.byKey, e.hash)
	c.bytes -= e.Bytes
	c.evictions++
}

// Invalidate drops every entry and bumps the generation, refusing
// inserts from executions that started before the call. The mediator
// invokes it on wrapper outage marks and feedback adjustments; catalog
// epoch bumps invalidate implicitly through Get's epoch check, but
// registration calls it too so the memory is released eagerly.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.invalidations++
	c.lru.Init()
	c.byKey = make(map[algebra.Hash128]*list.Element, c.cfg.Entries)
	c.bytes = 0
}

// Counters snapshots the cache statistics.
func (c *Cache) Counters() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Stale: c.stale,
		Evictions: c.evictions, Invalidations: c.invalidations, Rejected: c.rejected,
		Entries: c.lru.Len(), Bytes: c.bytes,
	}
}

// ApproxBytes estimates the memory footprint of a materialized result:
// per-row and per-value overheads plus the value payloads. It only needs
// to be proportional — the byte budget is a bound on growth, not an
// accounting of the allocator.
func ApproxBytes(rows []types.Row) int64 {
	const (
		rowOverhead = 48 // slice header + backing array slot amortized
		valOverhead = 16 // interface-ish constant header
	)
	var b int64
	for _, row := range rows {
		b += rowOverhead
		for _, v := range row {
			b += valOverhead
			if v.Kind() == types.KindString {
				b += int64(len(v.AsString()))
			} else {
				b += 8
			}
		}
	}
	return b
}
