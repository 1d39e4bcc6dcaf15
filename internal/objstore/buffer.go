package objstore

import (
	"container/list"
	"sync"

	"disco/internal/netsim"
)

// pageKey identifies one page across collections.
type pageKey struct {
	coll string
	page int32
}

// bufferPool is an LRU page buffer. A miss charges one page I/O to the
// clock; hits are free (the paper's model attributes all I/O time to page
// fetches). The pool is safe for concurrent use — the mediator serves
// queries from many goroutines and every scan funnels page touches
// through here — with the mutex serializing the LRU bookkeeping the way
// a real buffer manager's latch would.
type bufferPool struct {
	capacity int
	ioTimeMS float64
	clock    *netsim.Clock

	mu      sync.Mutex
	lru     *list.List // of pageKey, front = most recent
	entries map[pageKey]*list.Element

	// Counters for experiments and tests; read them through stats().
	Hits   int64
	Misses int64
}

func newBufferPool(capacity int, ioTimeMS float64, clock *netsim.Clock) *bufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &bufferPool{
		capacity: capacity,
		ioTimeMS: ioTimeMS,
		clock:    clock,
		lru:      list.New(),
		entries:  make(map[pageKey]*list.Element, capacity),
	}
}

// touch accesses a page, charging an I/O on a miss, and returns whether it
// was a hit.
func (b *bufferPool) touch(coll string, page int32) bool {
	k := pageKey{coll, page}
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.entries[k]; ok {
		b.lru.MoveToFront(el)
		b.Hits++
		return true
	}
	b.Misses++
	if b.clock != nil {
		b.clock.Advance(b.ioTimeMS)
	}
	if b.lru.Len() >= b.capacity {
		oldest := b.lru.Back()
		if oldest != nil {
			delete(b.entries, oldest.Value.(pageKey))
			b.lru.Remove(oldest)
		}
	}
	b.entries[k] = b.lru.PushFront(k)
	return false
}

// reset empties the pool and counters (each measured experiment run starts
// cold).
func (b *bufferPool) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lru.Init()
	b.entries = make(map[pageKey]*list.Element, b.capacity)
	b.Hits, b.Misses = 0, 0
}
