package objstore

import "sync"

// bufferPool is an LRU page buffer. A miss charges one page I/O to the
// clock; hits are free (the paper's model attributes all I/O time to page
// fetches). The pool is safe for concurrent use — the mediator serves
// queries from many goroutines and every scan funnels page touches
// through here — with the mutex serializing the LRU bookkeeping the way
// a real buffer manager's latch would.
//
// The pool is flat: a fixed array of frames whose prev/next fields link
// the LRU list by frame number, and a page table per collection
// (Collection.resident) mapping a page to the frame holding it. Frame 0
// is the list's sentinel (its next is the most recent page, its prev the
// least recent), so frame number 0 in a page table means "not resident".
// A hit or a miss hashes nothing and allocates nothing.
type bufferPool struct {
	mu     sync.Mutex
	frames []frame // frames[0] is the sentinel; capacity frames follow
	used   int32   // frames 1..used hold pages

	// Counters for experiments and tests; read them through stats().
	Hits   int64
	Misses int64
}

// frame is one buffer slot: the page it holds and its LRU neighbours.
type frame struct {
	prev, next int32
	page       int32
	coll       *Collection
}

func newBufferPool(capacity int) *bufferPool {
	return &bufferPool{frames: make([]frame, capacity+1)}
}

// lookup accesses a page with b.mu held and reports whether it was
// resident. A hit moves the page to the front; a miss installs it there,
// evicting the least recent page when the pool is full. The caller
// charges the miss's I/O.
func (b *bufferPool) lookup(c *Collection, page int32) bool {
	if int(page) >= len(c.resident) {
		c.resident = append(c.resident, make([]int32, int(page)+1-len(c.resident))...)
	}
	f := c.resident[page]
	if f != 0 {
		b.Hits++
		if b.frames[0].next != f {
			b.unlink(f)
			b.pushFront(f)
		}
		return true
	}
	b.Misses++
	if int(b.used) < len(b.frames)-1 {
		b.used++
		f = b.used
	} else {
		f = b.frames[0].prev
		b.unlink(f)
		old := &b.frames[f]
		old.coll.resident[old.page] = 0
	}
	b.frames[f].coll, b.frames[f].page = c, page
	b.pushFront(f)
	c.resident[page] = f
	return false
}

func (b *bufferPool) unlink(f int32) {
	p, n := b.frames[f].prev, b.frames[f].next
	b.frames[p].next = n
	b.frames[n].prev = p
}

func (b *bufferPool) pushFront(f int32) {
	head := b.frames[0].next
	b.frames[f].prev, b.frames[f].next = 0, head
	b.frames[head].prev = f
	b.frames[0].next = f
}

// reset empties the pool and counters (each measured experiment run starts
// cold).
func (b *bufferPool) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for f := int32(1); f <= b.used; f++ {
		fr := &b.frames[f]
		fr.coll.resident[fr.page] = 0
		*fr = frame{}
	}
	b.frames[0] = frame{}
	b.used = 0
	b.Hits, b.Misses = 0, 0
}
