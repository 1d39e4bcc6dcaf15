package netsim

import "sync"

// Pool is an LRU page buffer shared by the owners (collections, tables)
// of one store. A miss is a page fetch the caller charges to its meter;
// hits are free (the paper's model attributes all I/O time to page
// fetches). The pool is safe for concurrent use — the mediator serves
// queries from many goroutines and every read funnels page touches
// through here — with the mutex serializing the LRU bookkeeping the way
// a real buffer manager's latch would.
//
// The pool is flat: a fixed array of frames whose prev/next fields link
// the LRU list by frame number, and a PageTable per owner mapping a page
// to the frame holding it. Frame 0 is the list's sentinel (its next is
// the most recent page, its prev the least recent), so frame number 0 in
// a page table means "not resident". A hit or a miss hashes nothing and
// allocates nothing.
type Pool struct {
	mu     sync.Mutex
	frames []frame // frames[0] is the sentinel; capacity frames follow
	used   int32   // frames 1..used hold pages

	hits, misses int64
}

// PageTable is one owner's map from page number to pool frame, grown as
// pages are touched. Only the pool reads or writes it, under its lock.
type PageTable struct{ frames []int32 }

// frame is one buffer slot: the page it holds and its LRU neighbours.
type frame struct {
	prev, next int32
	page       int32
	owner      *PageTable
}

// NewPool returns an empty pool of capacity pages.
func NewPool(capacity int) *Pool {
	return &Pool{frames: make([]frame, capacity+1)}
}

// Touch accesses one page of t's owner and reports whether it was
// resident.
func (p *Pool) Touch(t *PageTable, page int32) bool {
	p.mu.Lock()
	hit := p.Lookup(t, page)
	p.mu.Unlock()
	return hit
}

// Lock holds the pool for a run of Lookup calls, so a caller touching
// many pages takes the lock once; Unlock releases it.
func (p *Pool) Lock() { p.mu.Lock() }

// Unlock releases the pool taken by Lock.
func (p *Pool) Unlock() { p.mu.Unlock() }

// Lookup is Touch for a caller holding the lock. A hit moves the page to
// the front; a miss installs it there, evicting the least recent page
// when the pool is full.
func (p *Pool) Lookup(t *PageTable, page int32) bool {
	if int(page) >= len(t.frames) {
		t.frames = append(t.frames, make([]int32, int(page)+1-len(t.frames))...)
	}
	f := t.frames[page]
	if f != 0 {
		p.hits++
		if p.frames[0].next != f {
			p.unlink(f)
			p.pushFront(f)
		}
		return true
	}
	p.misses++
	if int(p.used) < len(p.frames)-1 {
		p.used++
		f = p.used
	} else {
		f = p.frames[0].prev
		p.unlink(f)
		old := &p.frames[f]
		old.owner.frames[old.page] = 0
	}
	p.frames[f].owner, p.frames[f].page = t, page
	p.pushFront(f)
	t.frames[page] = f
	return false
}

func (p *Pool) unlink(f int32) {
	prev, next := p.frames[f].prev, p.frames[f].next
	p.frames[prev].next = next
	p.frames[next].prev = prev
}

func (p *Pool) pushFront(f int32) {
	head := p.frames[0].next
	p.frames[f].prev, p.frames[f].next = 0, head
	p.frames[head].prev = f
	p.frames[0].next = f
}

// Reset empties the pool and its counters (each measured experiment run
// starts cold).
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := int32(1); f <= p.used; f++ {
		fr := &p.frames[f]
		fr.owner.frames[fr.page] = 0
		*fr = frame{}
	}
	p.frames[0] = frame{}
	p.used = 0
	p.hits, p.misses = 0, 0
}

// Stats reports the hits and misses since the last Reset.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
