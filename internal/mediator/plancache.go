package mediator

import (
	"container/list"
	"strings"
	"sync"
	"unicode"
)

// DefaultPlanCacheSize bounds the prepared-plan cache when
// Config.PlanCacheSize is zero.
const DefaultPlanCacheSize = 256

// planCache is a bounded LRU of prepared plans keyed by normalized SQL.
// Every entry remembers the catalog epoch it was planned under; a lookup
// against a newer epoch evicts the entry instead of returning it, so a
// re-registration (new statistics, new cost rules, revived wrapper)
// implicitly invalidates every plan built on the old federation. The
// cache has its own mutex — it is touched from the read-locked query
// path, where the mediator's big lock admits many goroutines at once.
//
// An outage mark clears the cache from that same read-locked path
// without bumping the epoch, so a prepare that planned before the clear
// could insert a plan priced with the dead wrapper's rules after it.
// gen guards that race exactly as the result cache's generation does: a
// prepare snapshots it before planning, and put refuses a plan whose
// snapshot a clear has since retired.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *planEntry, front = most recent
	byKey map[string]*list.Element
	gen   uint64

	hits   int64
	misses int64
	stale  int64 // misses caused by an epoch bump
}

type planEntry struct {
	key string
	p   *Prepared
}

// newPlanCache returns a cache bounded to capacity entries, or nil when
// capacity is negative (caching disabled).
func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = DefaultPlanCacheSize
	}
	return &planCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached plan for key if it was prepared under the given
// catalog epoch. Epoch-stale entries are evicted on sight.
func (c *planCache) get(key string, epoch uint64) (*Prepared, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.p.Epoch != epoch {
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.stale++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.p, true
}

// generation returns the current clear generation; a prepare snapshots
// it before planning and hands it to put.
func (c *planCache) generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// put stores a prepared plan, evicting the least recently used entry at
// capacity, unless a clear has run since gen was snapshotted. Cached
// Prepared values are shared across goroutines and must never be mutated
// after insertion.
func (c *planCache) put(key string, p *Prepared, gen uint64) {
	if c == nil || key == "" || p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planEntry).p = p
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		if oldest != nil {
			delete(c.byKey, oldest.Value.(*planEntry).key)
			c.lru.Remove(oldest)
		}
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, p: p})
}

// clear drops every entry (federation change, outage mark, model
// correction) and refuses every put whose generation predates it.
func (c *planCache) clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.byKey = make(map[string]*list.Element, c.cap)
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// counters snapshots the hit/miss/stale counters.
func (c *planCache) counters() (hits, misses, stale int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale
}

// NormalizeSQL collapses whitespace runs to single spaces and trims the
// statement, so formatting variants of one query share a cache entry.
// Case is preserved: keywords are case-insensitive but string constants
// are not, and a cosmetic miss is cheaper than a wrong hit.
//
// Quoted string literals pass through verbatim: collapsing whitespace
// inside them would key `WHERE name = 'a  b'` and `WHERE name = 'a b'`
// to the same cache entry and serve one query's plan — with the wrong
// constant baked in — for the other. The literal rules mirror the
// lexer's (internal/sqlparser): ' or " opens a literal, the matching
// quote closes it, and there is no escape mechanism (the other quote
// character is ordinary content). An unterminated literal runs to the
// end of the statement, exactly as the lexer consumes it, so the
// trailing trim is skipped rather than amputating literal content.
//
// Exported because the federation router keys its consistent-hash ring
// on the same plan identity the replica caches use: routing a statement
// by NormalizeSQL pins each prepared plan (and its cached result) to one
// replica's caches.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	space := false
	var quote rune // 0 = outside any literal
	for _, r := range sql {
		if quote != 0 {
			b.WriteRune(r)
			if r == quote {
				quote = 0
			}
			continue
		}
		if unicode.IsSpace(r) {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		if r == '\'' || r == '"' {
			quote = r
		}
		b.WriteRune(r)
	}
	if quote != 0 {
		return b.String()
	}
	return strings.TrimRight(b.String(), " ;")
}
