package objstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

// Config sets the physical and timing parameters of a store. The defaults
// are the paper's §5 ObjectStore measurements: 4096-byte pages at a 96 %
// fill factor, 25 ms per page fetch and 9 ms per delivered object.
type Config struct {
	PageSize     int     // bytes per page
	FillFactor   float64 // usable fraction of a page
	BufferPages  int     // buffer pool capacity in pages
	IOTimeMS     float64 // per page fetch on a buffer miss
	OutputTimeMS float64 // per object delivered to the caller
	CPUTimeMS    float64 // per object examined
	ProbeTimeMS  float64 // per index entry traversed
}

// DefaultConfig returns the paper's constants.
func DefaultConfig() Config {
	return Config{
		PageSize:     4096,
		FillFactor:   0.96,
		BufferPages:  256,
		IOTimeMS:     25,
		OutputTimeMS: 9,
		CPUTimeMS:    0.01,
		ProbeTimeMS:  0.002,
	}
}

// Store is one simulated object database holding named collections and
// sharing a buffer pool. Reads charge the meter their caller passes.
type Store struct {
	cfg   Config
	buf   *netsim.Pool
	colls map[string]*Collection
}

// Open creates a store.
func Open(cfg Config) *Store {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.FillFactor <= 0 || cfg.FillFactor > 1 {
		cfg.FillFactor = 0.96
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 256
	}
	return &Store{
		cfg:   cfg,
		buf:   netsim.NewPool(cfg.BufferPages),
		colls: make(map[string]*Collection),
	}
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// ResetBuffer empties the buffer pool, so the next measurement starts
// cold.
func (s *Store) ResetBuffer() { s.buf.Reset() }

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	out := make([]string, 0, len(s.colls))
	for name := range s.colls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Collection returns a collection by name.
func (s *Store) Collection(name string) (*Collection, bool) {
	c, ok := s.colls[name]
	return c, ok
}

// index couples a B+-tree with its attribute position.
type index struct {
	attr      string
	fieldPos  int
	tree      *BTree
	clustered bool
}

// Collection is one extent of objects with a schema, a declared object
// size (for page packing), its rows, and optional indexes. The rows are
// one slice in physical (insertion) order: page p holds
// rows[p*perPage:(p+1)*perPage].
type Collection struct {
	store      *Store
	name       string
	schema     *types.Schema
	objectSize int
	rows       []types.Row
	perPage    int
	indexes    map[string]*index

	// pages is the buffer pool's page table for this collection.
	pages netsim.PageTable
}

// CreateCollection adds an empty collection. objectSize is the declared
// on-disk size of one object in bytes (0 derives a default from the
// schema: 8 bytes per numeric field, 24 per string).
func (s *Store) CreateCollection(name string, schema *types.Schema, objectSize int) (*Collection, error) {
	if _, exists := s.colls[name]; exists {
		return nil, fmt.Errorf("objstore: collection %q already exists", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("objstore: collection %q needs a schema", name)
	}
	if objectSize <= 0 {
		objectSize = 0
		for i := 0; i < schema.Len(); i++ {
			if schema.Field(i).Type == types.KindString {
				objectSize += 24
			} else {
				objectSize += 8
			}
		}
	}
	perPage := int(float64(s.cfg.PageSize)*s.cfg.FillFactor) / objectSize
	if perPage < 1 {
		perPage = 1
	}
	c := &Collection{
		store:      s,
		name:       name,
		schema:     schema,
		objectSize: objectSize,
		perPage:    perPage,
		indexes:    make(map[string]*index),
	}
	s.colls[name] = c
	return c, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Schema returns the row schema.
func (c *Collection) Schema() *types.Schema { return c.schema }

// PageCount reports the number of pages.
func (c *Collection) PageCount() int { return (len(c.rows) + c.perPage - 1) / c.perPage }

// ridOf addresses the i-th row in physical order.
func (c *Collection) ridOf(i int) RID {
	return RID{Page: int32(i / c.perPage), Slot: int32(i % c.perPage)}
}

// at returns the row a RID addresses.
func (c *Collection) at(rid RID) types.Row {
	return c.rows[int(rid.Page)*c.perPage+int(rid.Slot)]
}

// Insert appends one object in arrival order (physical placement is
// insertion order: inserting in key order yields clustering on that key,
// inserting shuffled yields the scattered placement of Figure 12's
// unclustered index scan). Insertion is a bulk-load operation and charges
// no time.
func (c *Collection) Insert(row types.Row) error {
	if len(row) != c.schema.Len() {
		return fmt.Errorf("objstore: %s: row arity %d, schema %d", c.name, len(row), c.schema.Len())
	}
	rid := c.ridOf(len(c.rows))
	c.rows = append(c.rows, row)
	for _, idx := range c.indexes {
		idx.tree.Insert(row[idx.fieldPos], rid)
	}
	return nil
}

// CreateIndex builds a B+-tree on the attribute over all existing objects
// from one sort of their keys (buildBTree); it holds what inserting them
// in physical order would.
func (c *Collection) CreateIndex(attr string, clustered bool) error {
	pos, ok := c.schema.Lookup(attr)
	if !ok {
		return fmt.Errorf("objstore: %s has no attribute %q", c.name, attr)
	}
	key := strings.ToLower(attr)
	if _, exists := c.indexes[key]; exists {
		return fmt.Errorf("objstore: %s already has an index on %q", c.name, attr)
	}
	tree := buildBTree(len(c.rows), func(i int) types.Constant { return c.rows[i][pos] }, c.ridOf)
	c.indexes[key] = &index{attr: attr, fieldPos: pos, tree: tree, clustered: clustered}
	return nil
}

// MarkClustered flags an existing index as clustering (physical placement
// follows the index order). The flag feeds the exported statistics; the
// caller asserts that the data was loaded in key order.
func (c *Collection) MarkClustered(attr string) error {
	idx, ok := c.indexes[strings.ToLower(attr)]
	if !ok {
		return fmt.Errorf("objstore: %s has no index on %q", c.name, attr)
	}
	idx.clustered = true
	return nil
}

// HasIndex reports whether the attribute is indexed, and whether that
// index is clustering.
func (c *Collection) HasIndex(attr string) (indexed, clustered bool) {
	idx, ok := c.indexes[strings.ToLower(attr)]
	if !ok {
		return false, false
	}
	return true, idx.clustered
}

// touch reads a page through the buffer pool, charging an I/O on a miss.
func (c *Collection) touch(m *netsim.Meter, page int32) {
	if !c.store.buf.Touch(&c.pages, page) {
		m.Add(c.store.cfg.IOTimeMS)
	}
}

// SeqIter scans every page in physical order.
type SeqIter struct {
	coll *Collection
	m    *netsim.Meter
	i    int
}

// SeqScan starts a sequential scan charging m.
func (c *Collection) SeqScan(m *netsim.Meter) *SeqIter { return &SeqIter{coll: c, m: m} }

// Next returns the next row; ok is false at the end.
func (s *SeqIter) Next() (types.Row, bool) {
	c := s.coll
	if s.i >= len(c.rows) {
		return nil, false
	}
	if s.i%c.perPage == 0 {
		c.touch(s.m, int32(s.i/c.perPage))
	}
	row := c.rows[s.i]
	s.i++
	s.m.Add(c.store.cfg.CPUTimeMS)
	return row, true
}

// ReadAll reads every page in physical order and charges it exactly as a
// SeqScan would, a page at a time: the buffer-pool touch, then the
// per-object CPU time of the objects on it. It returns the collection's
// own rows with the capacity pinned to the length, so a caller's append
// copies instead of writing into the store; the rows are read-only.
func (c *Collection) ReadAll(m *netsim.Meter) []types.Row {
	rows := c.rows[:len(c.rows):len(c.rows)]
	for lo := 0; lo < len(rows); lo += c.perPage {
		c.touch(m, int32(lo/c.perPage))
		m.AddN(c.store.cfg.CPUTimeMS, min(c.perPage, len(rows)-lo))
	}
	return rows
}

// IndexIter walks an index range a row at a time, fetching each
// qualifying object through the buffer pool (the unclustered access
// pattern of Figure 12). It is the reference IndexSelect is tested
// against.
type IndexIter struct {
	coll *Collection
	m    *netsim.Meter
	it   *TreeIter
}

// IndexScan starts an index scan for `attr op value` charging m; it fails
// when the attribute has no index or the operator cannot use one.
func (c *Collection) IndexScan(m *netsim.Meter, attr string, op stats.CmpOp, value types.Constant) (*IndexIter, error) {
	idx, err := c.rangeIndex(attr, op)
	if err != nil {
		return nil, err
	}
	return &IndexIter{coll: c, m: m, it: idx.tree.Seek(op, value)}, nil
}

// rangeIndex returns the index that can serve `attr op value`.
func (c *Collection) rangeIndex(attr string, op stats.CmpOp) (*index, error) {
	idx, ok := c.indexes[strings.ToLower(attr)]
	if !ok {
		return nil, fmt.Errorf("objstore: %s has no index on %q", c.name, attr)
	}
	if op == stats.CmpNE {
		return nil, fmt.Errorf("objstore: index scan cannot serve <>")
	}
	return idx, nil
}

// Next returns the next row, charging the index probe, the page fetch
// and the object's CPU time; ok is false at the end.
func (i *IndexIter) Next() (types.Row, bool) {
	e, ok := i.it.Next()
	if !ok {
		return nil, false
	}
	c := i.coll
	i.m.Add(c.store.cfg.ProbeTimeMS)
	c.touch(i.m, e.RID.Page)
	i.m.Add(c.store.cfg.CPUTimeMS)
	return c.at(e.RID), true
}

// indexRun is the number of index entries IndexSelect fetches under one
// hold of the pool lock: one executor batch, so locking is paid per run
// instead of per row while a long range never makes a concurrent query's
// page touches wait behind the whole scan.
const indexRun = 1024

// ridBuf is IndexSelect's pooled scratch for a range's RIDs.
type ridBuf struct{ rids []RID }

var ridPool = sync.Pool{New: func() any { return new(ridBuf) }}

// IndexSelect returns the objects satisfying `attr op value` in index
// order (nil when none), charging m exactly as draining IndexScan charges:
// per entry the probe, the page fetch (an I/O on a buffer miss), then the
// object's CPU time, in that order. The tree walk charges nothing, so the
// range's RIDs are gathered first; they are then fetched in runs of
// indexRun, each under one hold of the pool lock.
func (c *Collection) IndexSelect(m *netsim.Meter, attr string, op stats.CmpOp, value types.Constant) ([]types.Row, error) {
	idx, err := c.rangeIndex(attr, op)
	if err != nil {
		return nil, err
	}
	buf := ridPool.Get().(*ridBuf)
	defer ridPool.Put(buf)
	it := idx.tree.seek(op, value)
	rids := it.appendRIDs(buf.rids[:0])
	buf.rids = rids
	if len(rids) == 0 {
		return nil, nil
	}
	out := make([]types.Row, len(rids))
	b, cfg := c.store.buf, &c.store.cfg
	for lo := 0; lo < len(rids); lo += indexRun {
		b.Lock()
		for i, rid := range rids[lo:min(lo+indexRun, len(rids))] {
			m.Add(cfg.ProbeTimeMS)
			if !b.Lookup(&c.pages, rid.Page) {
				m.Add(cfg.IOTimeMS)
			}
			m.Add(cfg.CPUTimeMS)
			out[lo+i] = c.at(rid)
		}
		b.Unlock()
	}
	return out, nil
}

// DeliverOutput charges m the per-object delivery cost for n result
// objects; the wrapper layer calls it when rows leave the source.
func (s *Store) DeliverOutput(m *netsim.Meter, n int) {
	m.Add(float64(n) * s.cfg.OutputTimeMS)
}

// ExtentStats computes the collection's exported extent statistics:
// TotalSize is occupied disk space (pages × page size), matching the
// paper's AtomicParts description (1000 pages).
func (c *Collection) ExtentStats() stats.ExtentStats {
	return stats.ExtentStats{
		CountObject: int64(len(c.rows)),
		TotalSize:   int64(c.PageCount() * c.store.cfg.PageSize),
		ObjectSize:  int64(c.objectSize),
	}
}

// AttributeStats computes the exported statistics of one attribute with
// stats.Summarize (registration-time work, no charge).
func (c *Collection) AttributeStats(attr string) (stats.AttributeStats, error) {
	pos, ok := c.schema.Lookup(attr)
	if !ok {
		return stats.AttributeStats{}, fmt.Errorf("objstore: %s has no attribute %q", c.name, attr)
	}
	out := stats.Summarize(c.rows, pos)
	out.Indexed, out.Clustered = c.HasIndex(attr)
	return out, nil
}
