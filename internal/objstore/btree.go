// Package objstore implements the ObjectStore-like simulated object
// database used as the paper's experimental substrate: rows packed onto
// pages by the declared object size and fill factor, a shared LRU buffer
// pool (internal/netsim.Pool), B+-tree indexes, and sequential/index
// reads whose cost is charged to the caller's execution meter
// (internal/netsim.Meter) as a pure function of pages fetched and objects
// processed. With the paper's constants
// (25 ms/page, 9 ms/object) the measured index-scan curve of Figure 12
// emerges from the page/buffer mechanics.
//
// A collection's rows are one slice in insertion order; page p is the
// p-th run of rows-per-page of them. A whole-extent read
// (Collection.ReadAll) charges a page at a time, exactly as SeqScan
// charges row by row, and an index range (Collection.IndexSelect) is
// fetched in runs charged exactly as IndexScan charges row by row. Both
// hand out the stored rows themselves: rows a store returns are
// read-only to every caller.
//
// Registration-time work charges nothing and is built for speed: an
// index over existing objects (Collection.CreateIndex) comes from one
// sort of their keys, packed bottom-up into the tree inserting them one
// by one would hold, and an attribute's statistics are one typed pass
// (stats.Summarize).
package objstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"disco/internal/stats"
	"disco/internal/types"
)

// RID addresses one object: page number and slot within the page.
type RID struct {
	Page int32
	Slot int32
}

// btreeOrder is the maximum number of keys per node.
const btreeOrder = 64

// BTree is a B+-tree mapping constants to RID lists (duplicates allowed).
// Leaves are linked for range scans.
type BTree struct {
	root btnode
	size int
}

type btnode interface {
	// insert adds the entry; when the node splits it returns the
	// separator key and the new right sibling.
	insert(key types.Constant, rid RID) (types.Constant, btnode)
	// firstLeaf returns the leftmost descendant leaf.
	firstLeaf() *btleaf
	// seekLeaf returns the leaf that would contain key and the index of
	// the first entry >= key in it.
	seekLeaf(key types.Constant) (*btleaf, int)
}

type btleaf struct {
	keys []types.Constant
	vals [][]RID
	next *btleaf
}

type btinner struct {
	keys     []types.Constant // len(children) == len(keys)+1
	children []btnode
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &btleaf{}} }

// Len reports the number of entries (duplicates counted).
func (t *BTree) Len() int { return t.size }

// Insert adds key -> rid.
func (t *BTree) Insert(key types.Constant, rid RID) {
	sep, right := t.root.insert(key, rid)
	if right != nil {
		t.root = &btinner{keys: []types.Constant{sep}, children: []btnode{t.root, right}}
	}
	t.size++
}

// buildBTree returns the tree that inserting key(i) -> rid(i) for i = 0
// .. n-1 in turn would hold: the same keys in the same order, each stored
// as first inserted and holding its RIDs in insertion order. It sorts the
// insertion indices once (sortKeys), groups Equal keys and packs the
// leaves and then each inner level bottom-up, a level's nodes, keys and
// RIDs in a few allocations. A NaN key falls back to inserting one at a
// time: Compare ties a NaN with every number, so there is no order to
// sort by.
func buildBTree(n int, key func(int) types.Constant, rid func(int) RID) *BTree {
	if n == 0 {
		return NewBTree()
	}
	row, same, ok := sortKeys(n, key)
	if !ok {
		t := NewBTree()
		for i := 0; i < n; i++ {
			t.Insert(key(i), rid(i))
		}
		return t
	}
	groups := 1
	for j := 1; j < n; j++ {
		if !same(j) {
			groups++
		}
	}
	keys := make([]types.Constant, 0, groups)
	vals := make([][]RID, 0, groups)
	rids := make([]RID, n)
	start := 0
	for j := range rids {
		rids[j] = rid(row(j))
		if j+1 == n || !same(j+1) {
			keys = append(keys, key(row(start)))
			vals = append(vals, rids[start:j+1:j+1])
			start = j + 1
		}
	}
	return &BTree{root: packLevels(keys, vals), size: n}
}

// sortKeys sorts the insertion indices by key, ties in insertion order:
// row(j) is the j-th index in that order, and same(j) reports whether its
// key is Equal to the (j-1)-th's. Int keys within a 2^32 span sort as
// packed (key offset, index) words with no comparison callback; other
// keys sort by Compare. ok is false when a key is NaN.
func sortKeys(n int, key func(int) types.Constant) (row func(int) int, same func(int) bool, ok bool) {
	if lo, ok := intSpan(n, key); ok {
		packed := make([]uint64, n)
		for i := range packed {
			packed[i] = (uint64(key(i).AsInt())-uint64(lo))<<32 | uint64(i)
		}
		slices.Sort(packed)
		return func(j int) int { return int(uint32(packed[j])) },
			func(j int) bool { return packed[j]>>32 == packed[j-1]>>32 }, true
	}
	order := make([]int32, n)
	for i := range order {
		if k := key(i); k.Kind() == types.KindFloat && math.IsNaN(k.AsFloat()) {
			return nil, nil, false
		}
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(key(int(a)).Compare(key(int(b))), cmp.Compare(a, b))
	})
	return func(j int) int { return int(order[j]) },
		func(j int) bool { return key(int(order[j])).Equal(key(int(order[j-1]))) }, true
}

// intSpan returns the least of n keys when every key is an int and all
// lie within a span of 2^32, so a key's offset and its index pack into
// one word.
func intSpan(n int, key func(int) types.Constant) (lo int64, ok bool) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := key(i)
		if k.Kind() != types.KindInt {
			return 0, false
		}
		lo, hi = min(lo, k.AsInt()), max(hi, k.AsInt())
	}
	return lo, n <= math.MaxUint32 && uint64(hi)-uint64(lo) <= math.MaxUint32
}

// packLevels lays sorted, distinct keys and their RID lists into leaves
// of at most btreeOrder keys, then groups each level into inner nodes of
// at most btreeOrder+1 children until one node is left. Nodes of a level
// are spread evenly, so every node but a lone root is at least half full;
// each node's slices have their capacity pinned, so a later Insert copies
// instead of writing into a neighbour.
func packLevels(keys []types.Constant, vals [][]RID) btnode {
	nl := (len(keys) + btreeOrder - 1) / btreeOrder
	leaves := make([]btleaf, nl)
	level := make([]btnode, nl)
	firsts := make([]types.Constant, nl) // first key under each node
	for i := range leaves {
		lo, hi := len(keys)*i/nl, len(keys)*(i+1)/nl
		leaves[i] = btleaf{keys: keys[lo:hi:hi], vals: vals[lo:hi:hi]}
		if i > 0 {
			leaves[i-1].next = &leaves[i]
		}
		level[i], firsts[i] = &leaves[i], keys[lo]
	}
	for len(level) > 1 {
		nn := (len(level) + btreeOrder) / (btreeOrder + 1)
		inners := make([]btinner, nn)
		up := make([]btnode, nn)
		upFirsts := make([]types.Constant, nn)
		seps := make([]types.Constant, len(level)-nn)
		for i := range inners {
			lo, hi := len(level)*i/nn, len(level)*(i+1)/nn
			k := seps[: hi-lo-1 : hi-lo-1]
			seps = seps[hi-lo-1:]
			copy(k, firsts[lo+1:hi])
			inners[i] = btinner{keys: k, children: level[lo:hi:hi]}
			up[i], upFirsts[i] = &inners[i], firsts[lo]
		}
		level, firsts = up, upFirsts
	}
	return level[0]
}

// --- leaf ---

func (l *btleaf) firstLeaf() *btleaf { return l }

// lowerBound returns the first index with keys[i] >= key.
func (l *btleaf) lowerBound(key types.Constant) int {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.keys[mid].Compare(key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *btleaf) seekLeaf(key types.Constant) (*btleaf, int) {
	return l, l.lowerBound(key)
}

func (l *btleaf) insert(key types.Constant, rid RID) (types.Constant, btnode) {
	i := l.lowerBound(key)
	if i < len(l.keys) && l.keys[i].Equal(key) {
		l.vals[i] = append(l.vals[i], rid)
		return types.Null, nil
	}
	l.keys = append(l.keys, types.Null)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = []RID{rid}

	if len(l.keys) <= btreeOrder {
		return types.Null, nil
	}
	// Split.
	mid := len(l.keys) / 2
	right := &btleaf{
		keys: append([]types.Constant(nil), l.keys[mid:]...),
		vals: append([][]RID(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right.keys[0], right
}

// --- inner ---

func (n *btinner) firstLeaf() *btleaf { return n.children[0].firstLeaf() }

// childIndex returns the child subtree that may contain key.
func (n *btinner) childIndex(key types.Constant) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Compare(key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *btinner) seekLeaf(key types.Constant) (*btleaf, int) {
	return n.children[n.childIndex(key)].seekLeaf(key)
}

func (n *btinner) insert(key types.Constant, rid RID) (types.Constant, btnode) {
	ci := n.childIndex(key)
	sep, right := n.children[ci].insert(key, rid)
	if right == nil {
		return types.Null, nil
	}
	n.keys = append(n.keys, types.Null)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right

	if len(n.keys) <= btreeOrder {
		return types.Null, nil
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	rightNode := &btinner{
		keys:     append([]types.Constant(nil), n.keys[mid+1:]...),
		children: append([]btnode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sepUp, rightNode
}

// Entry is one (key, rid) pair produced by a tree iterator.
type Entry struct {
	Key types.Constant
	RID RID
}

// TreeIter iterates entries in key order within the range `key op v`.
// Steps counts leaf-entry visits for cost charging.
type TreeIter struct {
	leaf  *btleaf
	ki    int // key index in leaf
	vi    int // value index within the current key's RID list
	op    stats.CmpOp
	v     types.Constant
	Steps int
}

// Seek returns an iterator over entries satisfying `key op v`, in key
// order.
func (t *BTree) Seek(op stats.CmpOp, v types.Constant) *TreeIter {
	it := t.seek(op, v)
	return &it
}

// seek is Seek by value, so a caller draining the range in place
// allocates no iterator.
func (t *BTree) seek(op stats.CmpOp, v types.Constant) TreeIter {
	it := TreeIter{op: op, v: v}
	switch op {
	case stats.CmpEQ, stats.CmpGT, stats.CmpGE:
		it.leaf, it.ki = t.root.seekLeaf(v)
	case stats.CmpLT, stats.CmpLE, stats.CmpNE:
		// From the first key; NE is a full scan skipping v.
		it.leaf = t.root.firstLeaf()
	}
	return it
}

// ScanAll iterates every entry in key order.
func (t *BTree) ScanAll() *TreeIter {
	// GE bounds nothing once started at the first leaf.
	return &TreeIter{leaf: t.root.firstLeaf(), op: stats.CmpGE}
}

// ends reports whether key lies past the end of the range.
func (it *TreeIter) ends(k types.Constant) bool {
	switch it.op {
	case stats.CmpEQ:
		return !k.Equal(it.v)
	case stats.CmpLT:
		return k.Compare(it.v) >= 0
	case stats.CmpLE:
		return k.Compare(it.v) > 0
	}
	return false
}

// skips reports whether the range excludes key without ending there.
func (it *TreeIter) skips(k types.Constant) bool {
	return (it.op == stats.CmpGT || it.op == stats.CmpNE) && k.Equal(it.v)
}

// Next returns the next entry; ok is false at the end of the range.
func (it *TreeIter) Next() (Entry, bool) {
	for it.leaf != nil {
		if it.ki >= len(it.leaf.keys) {
			it.leaf = it.leaf.next
			it.ki, it.vi = 0, 0
			continue
		}
		key := it.leaf.keys[it.ki]
		if it.ends(key) {
			it.leaf = nil
			return Entry{}, false
		}
		if it.skips(key) {
			it.ki++
			it.vi = 0
			continue
		}
		rids := it.leaf.vals[it.ki]
		if it.vi >= len(rids) {
			it.ki++
			it.vi = 0
			continue
		}
		e := Entry{Key: key, RID: rids[it.vi]}
		it.vi++
		it.Steps++
		return e, true
	}
	return Entry{}, false
}

// appendRIDs appends the rest of the range's RIDs to dst in key order, a
// key's RID list at a time: the entries Next would return, without an
// Entry per RID.
func (it *TreeIter) appendRIDs(dst []RID) []RID {
	for ; it.leaf != nil; it.leaf, it.ki, it.vi = it.leaf.next, 0, 0 {
		for ; it.ki < len(it.leaf.keys); it.ki, it.vi = it.ki+1, 0 {
			if it.ends(it.leaf.keys[it.ki]) {
				it.leaf = nil
				return dst
			}
			if it.skips(it.leaf.keys[it.ki]) {
				continue
			}
			rids := it.leaf.vals[it.ki][it.vi:]
			it.Steps += len(rids)
			dst = append(dst, rids...)
		}
	}
	return dst
}

// check validates tree invariants (test helper, exported for the property
// tests).
func (t *BTree) check() error {
	var prev *types.Constant
	count := 0
	for it := t.ScanAll(); ; {
		e, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && e.Key.Compare(*prev) < 0 {
			return fmt.Errorf("objstore: keys out of order: %s after %s", e.Key, *prev)
		}
		k := e.Key
		prev = &k
		count++
	}
	if count != t.size {
		return fmt.Errorf("objstore: size %d but iterated %d entries", t.size, count)
	}
	return nil
}
