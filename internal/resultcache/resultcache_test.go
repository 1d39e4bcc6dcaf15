package resultcache

import (
	"fmt"
	"sync"
	"testing"

	"disco/internal/algebra"
	"disco/internal/types"
)

func h(n uint64) algebra.Hash128 { return algebra.Hash128{Lo: n, Hi: ^n} }

func rowsOf(n int) []types.Row {
	out := make([]types.Row, n)
	for i := range out {
		out[i] = types.Row{types.Int(int64(i)), types.Str(fmt.Sprintf("row-%d", i))}
	}
	return out
}

func enabled(entries int, maxBytes int64) Config {
	return Config{Enabled: true, Entries: entries, MaxBytes: maxBytes}
}

// TestResultCacheDisabledNil pins the disabled contract: the zero Config
// yields a nil cache and every method no-ops on it.
func TestResultCacheDisabledNil(t *testing.T) {
	c := New(Config{})
	if c != nil {
		t.Fatal("zero Config must disable the cache")
	}
	c.Put(h(1), rowsOf(3), nil, 1, c.Gen())
	if _, ok := c.Get(h(1), 1); ok {
		t.Error("nil cache returned a hit")
	}
	c.Invalidate()
	if s := c.Counters(); s != (Stats{}) {
		t.Errorf("nil cache counters = %+v", s)
	}
	if c.Peek(h(1), 1) {
		t.Error("nil cache peeked a live entry")
	}
}

// TestResultCacheHitMiss pins the basic LRU behaviour and counters.
func TestResultCacheHitMiss(t *testing.T) {
	c := New(enabled(2, 0))
	c.Put(h(1), rowsOf(2), nil, 7, c.Gen())
	if e, ok := c.Get(h(1), 7); !ok || len(e.Rows) != 2 {
		t.Fatalf("expected hit with 2 rows, got %v", e)
	}
	if _, ok := c.Get(h(2), 7); ok {
		t.Fatal("unknown hash hit")
	}
	// Capacity 2: the third insert evicts the least recently used entry.
	// Inserts push to the front, so after Put(h2), Put(h3) the back is
	// h(1) — touch it first so h(2) is the LRU victim instead.
	c.Put(h(2), rowsOf(1), nil, 7, c.Gen())
	if _, ok := c.Get(h(1), 7); !ok {
		t.Fatal("h(1) missing before over-capacity insert")
	}
	c.Put(h(3), rowsOf(1), nil, 7, c.Gen())
	if _, ok := c.Get(h(1), 7); !ok {
		t.Fatal("h(1) evicted despite being recently used")
	}
	if _, ok := c.Get(h(2), 7); ok {
		t.Fatal("LRU entry h(2) survived over-capacity insert")
	}
	s := c.Counters()
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 3 || s.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", s.Hits, s.Misses)
	}
}

// TestResultCacheEpochStale pins satellite-style stale accounting: an
// epoch-stale lookup evicts the entry and counts exactly one miss and
// one stale.
func TestResultCacheEpochStale(t *testing.T) {
	c := New(enabled(8, 0))
	c.Put(h(1), rowsOf(4), nil, 1, c.Gen())
	if _, ok := c.Get(h(1), 2); ok {
		t.Fatal("epoch-stale entry served")
	}
	s := c.Counters()
	if s.Misses != 1 || s.Stale != 1 || s.Hits != 0 {
		t.Errorf("after stale get: hits/misses/stale = %d/%d/%d, want 0/1/1", s.Hits, s.Misses, s.Stale)
	}
	if s.Entries != 0 {
		t.Errorf("stale entry not evicted: entries = %d", s.Entries)
	}
	// A plain miss does not touch the stale counter.
	if _, ok := c.Get(h(1), 2); ok {
		t.Fatal("evicted entry served")
	}
	s = c.Counters()
	if s.Misses != 2 || s.Stale != 1 {
		t.Errorf("after plain miss: misses/stale = %d/%d, want 2/1", s.Misses, s.Stale)
	}
}

// TestResultCacheByteBudget pins the byte budget: every entry is charged
// ApproxBytes of its rows, entries are evicted to fit, and a result larger
// than the whole budget is refused outright.
func TestResultCacheByteBudget(t *testing.T) {
	rows := rowsOf(10)
	per := ApproxBytes(rows)
	c := New(enabled(100, 2*per+per/2))
	c.Put(h(1), rows, nil, 1, c.Gen())
	c.Put(h(2), rows, nil, 1, c.Gen())
	c.Put(h(3), rows, nil, 1, c.Gen()) // budget holds 2: evicts h(1)
	if _, ok := c.Get(h(1), 1); ok {
		t.Error("byte budget did not evict the oldest entry")
	}
	if _, ok := c.Get(h(3), 1); !ok {
		t.Error("newest entry missing")
	}
	if s := c.Counters(); s.Bytes != 2*per {
		t.Errorf("bytes = %d, want two entries of %d (budget %d)", s.Bytes, per, 2*per+per/2)
	}
	// Oversize insert: refused, cache untouched.
	big := rowsOf(100)
	c.Put(h(4), big, nil, 1, c.Gen())
	if _, ok := c.Get(h(4), 1); ok {
		t.Error("over-budget result admitted")
	}
	if s := c.Counters(); s.Rejected == 0 {
		t.Error("oversize insert not counted as rejected")
	}
}

// TestResultCacheGenerationRejectsRacedInsert pins the partial-answer
// race guard: an insert whose generation predates an Invalidate (an
// outage mark landed while the query executed) is refused.
func TestResultCacheGenerationRejectsRacedInsert(t *testing.T) {
	c := New(enabled(8, 0))
	gen := c.Gen()
	c.Invalidate() // the outage arrives mid-execution
	c.Put(h(1), rowsOf(2), nil, 1, gen)
	if _, ok := c.Get(h(1), 1); ok {
		t.Fatal("insert from a pre-invalidation execution admitted")
	}
	s := c.Counters()
	if s.Rejected != 1 || s.Invalidations != 1 {
		t.Errorf("rejected/invalidations = %d/%d, want 1/1", s.Rejected, s.Invalidations)
	}
	// The next execution observes the new generation and is admitted.
	c.Put(h(1), rowsOf(2), nil, 1, c.Gen())
	if _, ok := c.Get(h(1), 1); !ok {
		t.Fatal("post-invalidation insert refused")
	}
}

// TestResultCacheConcurrent hammers the cache from many goroutines under
// -race: mixed gets, puts, invalidations and peeks must stay
// internally consistent (the budget invariants hold at the end).
func TestResultCacheConcurrent(t *testing.T) {
	c := New(enabled(32, 1<<20))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := h(uint64(i % 40))
				switch i % 5 {
				case 0:
					c.Put(k, rowsOf(i%7+1), nil, 1, c.Gen())
				case 4:
					if g == 0 && i%50 == 0 {
						c.Invalidate()
					}
					c.Peek(k, 1)
				default:
					c.Get(k, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Counters()
	if s.Entries > 32 {
		t.Errorf("entry budget violated: %d", s.Entries)
	}
	if s.Bytes > 1<<20 {
		t.Errorf("byte budget violated: %d", s.Bytes)
	}
	if s.Entries == 0 && s.Bytes != 0 {
		t.Errorf("byte accounting drifted: %d bytes over 0 entries", s.Bytes)
	}
}

// TestApproxBytes pins the estimator's monotonicity: more rows and
// longer strings cost more.
func TestApproxBytes(t *testing.T) {
	if ApproxBytes(nil) != 0 {
		t.Error("empty result has nonzero footprint")
	}
	small := ApproxBytes(rowsOf(1))
	large := ApproxBytes(rowsOf(10))
	if small <= 0 || large <= small {
		t.Errorf("footprints not monotone: 1 row = %d, 10 rows = %d", small, large)
	}
	longStr := ApproxBytes([]types.Row{{types.Str(string(make([]byte, 1000)))}})
	shortStr := ApproxBytes([]types.Row{{types.Str("x")}})
	if longStr <= shortStr+900 {
		t.Errorf("string payload not charged: long = %d, short = %d", longStr, shortStr)
	}
}
