package vexec

import (
	"math/bits"

	"disco/internal/types"
)

// The breakers' in-memory state: one chained table over a hash join's
// build rows, and one open-addressing table that gives dup-elim and
// grouping keys dense ids in first-seen order. Both are flat slices, so a
// breaker allocates a handful of arrays per query, not an object per key.

// tableBits returns the log2 of the smallest power of two >= n (n >= 1).
func tableBits(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// joinLink is one build row's chain entry: its join-key hash and the
// 1-based index of the next row in its bucket (0 ends the chain).
type joinLink struct {
	hash uint64
	next int32
}

// joinTable chains a hash join's build rows by joinKeyHash. Rows are
// linked last to first, so a probe walks a bucket in build input order
// and emits its pairs in the order a nested loop over the build side
// would.
type joinTable struct {
	rows  []types.Row
	head  []int32 // per bucket, the 1-based index of its first row
	links []joinLink
	shift uint
}

func newJoinTable(rows []types.Row, pos int) joinTable {
	b := tableBits(len(rows))
	t := joinTable{
		rows:  rows,
		head:  make([]int32, 1<<b),
		links: make([]joinLink, len(rows)),
		shift: 64 - b,
	}
	for i := len(rows) - 1; i >= 0; i-- {
		h := joinKeyHash(rows[i][pos])
		bk := t.bucket(h)
		t.links[i] = joinLink{hash: h, next: t.head[bk]}
		t.head[bk] = int32(i + 1)
	}
	return t
}

// bucket maps a join-key hash to a head slot. joinKeyHash is FNV, whose
// high bits are weak and whose low bits a spill partition shares, so the
// hash is remixed before its top bits are taken (a shift of 64 gives 0).
func (t *joinTable) bucket(h uint64) uint64 { return (h * mixMul) >> t.shift }

// first returns the 1-based index of the first build row whose key hash
// is h, or 0; next continues from a returned index.
func (t *joinTable) first(h uint64) int32 { return t.seek(t.head[t.bucket(h)], h) }

func (t *joinTable) next(e int32, h uint64) int32 { return t.seek(t.links[e-1].next, h) }

func (t *joinTable) seek(e int32, h uint64) int32 {
	for e != 0 && t.links[e-1].hash != h {
		e = t.links[e-1].next
	}
	return e
}

// keySlot is one open-addressing slot: the top 32 bits of its key's hash,
// which also place it, and the key's 1-based id (0 marks the slot empty).
type keySlot struct {
	tag uint32
	id  int32
}

// keyTable assigns dense ids to distinct keys in first-seen order. A key
// is compared by identity — == on each types.Constant: kind, payload bits
// and string — so Int(3) and Float(3), or 0 and -0, are distinct keys.
// The id's key row lives in pooled collector chunks, so growing the table
// copies slots, never rows: dup-elim stores a key's first row itself,
// grouping the group's output row, whose leading values are its key.
type keyTable struct {
	slots []keySlot
	keys  *collector
	shift uint // 32 - log2(len(slots))
}

// minKeyTableBits sizes a fresh table's slot array (64 slots).
const minKeyTableBits = 6

// len returns the number of distinct keys.
func (t *keyTable) len() int {
	if t.keys == nil {
		return 0
	}
	return t.keys.n
}

// key returns the key row of id.
func (t *keyTable) key(id int) types.Row { return t.keys.chunks[id/chunkRows][id%chunkRows] }

// find returns the id of r's key, its values at pos, or -1 and the slot
// an insert of that key takes.
func (t *keyTable) find(r types.Row, pos []int, h uint64) (id int, slot uint32) {
	if t.slots == nil {
		t.slots = make([]keySlot, 1<<minKeyTableBits)
		t.shift = 32 - minKeyTableBits
		t.keys = collectorPool.Get().(*collector)
	}
	tag := uint32(h >> 32)
	mask := uint32(len(t.slots) - 1)
	for s := tag >> t.shift; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e.id == 0 {
			return -1, s
		}
		if e.tag == tag && sameKey(t.key(int(e.id-1)), r, pos) {
			return int(e.id - 1), s
		}
	}
}

// add stores key as a new id in the slot find returned, and returns the id.
func (t *keyTable) add(slot uint32, h uint64, key types.Row) int {
	t.keys.push(key)
	id := t.keys.n
	t.slots[slot] = keySlot{tag: uint32(h >> 32), id: int32(id)}
	if 2*id > len(t.slots) {
		t.grow()
	}
	return id - 1
}

// grow doubles the slot array, keeping the load at most one half.
func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]keySlot, 2*len(old))
	t.shift--
	mask := uint32(len(t.slots) - 1)
	for _, e := range old {
		if e.id == 0 {
			continue
		}
		s := e.tag >> t.shift
		for t.slots[s].id != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = e
	}
}

// release returns the key chunks to the pool, dropping their rows; with
// rows it first hands the keys over as one exact-size slice. The table is
// empty afterwards.
func (t *keyTable) release(rows bool) []types.Row {
	var out []types.Row
	if t.keys != nil {
		if rows {
			out = t.keys.result()
		} else {
			t.keys.reset()
		}
		collectorPool.Put(t.keys)
	}
	*t = keyTable{}
	return out
}

// sameKey reports whether the stored key's leading values equal r's
// values at pos.
func sameKey(key, r types.Row, pos []int) bool {
	for i, p := range pos {
		if key[i] != r[p] {
			return false
		}
	}
	return true
}
