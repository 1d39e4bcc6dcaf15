// Package relstore implements a heap-file relational engine with hash
// indexes — the second data-source class of the reproduction. Its cost
// behaviour differs from the object store on purpose: faster page I/O,
// equality-only (hash) indexes, no range index scans. A mediator relying
// on one generic cost model mispredicts one of the two source classes;
// blending per-wrapper rules fixes that (the paper's central claim).
//
// Page fetches go through the store's LRU buffer pool (internal/netsim.Pool,
// BufferPages pages shared by its tables), and every read charges the
// caller's execution meter. A full read (Table.ReadAll) charges a page at
// a time, exactly as the Scan iterator charges row by row, and returns
// the heap file's own rows: rows a table returns are read-only to every
// caller.
package relstore

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

// Config holds the physical and timing parameters.
type Config struct {
	PageSize     int
	BufferPages  int
	IOTimeMS     float64 // per page fetch
	CPUTimeMS    float64 // per tuple examined
	HashProbeMS  float64 // per hash-index probe
	OutputTimeMS float64 // per tuple delivered
}

// DefaultConfig returns a profile distinctly cheaper per page than the
// object store (a cached relational server).
func DefaultConfig() Config {
	return Config{
		PageSize:     8192,
		BufferPages:  512,
		IOTimeMS:     8,
		CPUTimeMS:    0.005,
		HashProbeMS:  0.01,
		OutputTimeMS: 1.5,
	}
}

// Store is a set of tables sharing a buffer pool and timing profile.
type Store struct {
	cfg    Config
	buf    *netsim.Pool
	tables map[string]*Table
}

// Open creates a store.
func Open(cfg Config) *Store {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 8192
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 512
	}
	return &Store{cfg: cfg, buf: netsim.NewPool(cfg.BufferPages), tables: make(map[string]*Table)}
}

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// ResetBuffer drops all cached pages (cold-start measurements).
func (s *Store) ResetBuffer() { s.buf.Reset() }

// Tables lists table names, sorted.
func (s *Store) Tables() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table returns a table by name.
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Table is one heap file with optional hash indexes.
type Table struct {
	store    *Store
	name     string
	schema   *types.Schema
	rows     []types.Row
	rowSize  int
	perPage  int
	hashIdx  map[string]map[types.Constant][]int // attr -> key -> row positions
	idxAttrs map[string]int                      // attr -> field position
	pages    netsim.PageTable                    // the buffer pool's page table
}

// CreateTable adds an empty table; rowSize 0 derives a default from the
// schema.
func (s *Store) CreateTable(name string, schema *types.Schema, rowSize int) (*Table, error) {
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("relstore: table %q needs a schema", name)
	}
	if rowSize <= 0 {
		rowSize = 0
		for i := 0; i < schema.Len(); i++ {
			if schema.Field(i).Type == types.KindString {
				rowSize += 32
			} else {
				rowSize += 8
			}
		}
	}
	perPage := s.cfg.PageSize / rowSize
	if perPage < 1 {
		perPage = 1
	}
	t := &Table{store: s, name: name, schema: schema, rowSize: rowSize, perPage: perPage,
		hashIdx: make(map[string]map[types.Constant][]int), idxAttrs: make(map[string]int)}
	s.tables[name] = t
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the row schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// PageCount reports how many heap pages the table occupies.
func (t *Table) PageCount() int { return (len(t.rows) + t.perPage - 1) / t.perPage }

// Insert appends a row (bulk load; no charge).
func (t *Table) Insert(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("relstore: %s: row arity %d, schema %d", t.name, len(row), t.schema.Len())
	}
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	for attr, fi := range t.idxAttrs {
		key := row[fi]
		t.hashIdx[attr][key] = append(t.hashIdx[attr][key], pos)
	}
	return nil
}

// CreateHashIndex builds an equality index on the attribute.
func (t *Table) CreateHashIndex(attr string) error {
	fi, ok := t.schema.Lookup(attr)
	if !ok {
		return fmt.Errorf("relstore: %s has no attribute %q", t.name, attr)
	}
	key := strings.ToLower(attr)
	if _, dup := t.hashIdx[key]; dup {
		return fmt.Errorf("relstore: %s already has an index on %q", t.name, attr)
	}
	m := make(map[types.Constant][]int)
	for pos, row := range t.rows {
		m[row[fi]] = append(m[row[fi]], pos)
	}
	t.hashIdx[key] = m
	t.idxAttrs[key] = fi
	return nil
}

// HasIndex reports whether attr has a hash index.
func (t *Table) HasIndex(attr string) bool {
	_, ok := t.hashIdx[strings.ToLower(attr)]
	return ok
}

// touchPage reads a page through the buffer pool, charging a fetch on a
// miss.
func (t *Table) touchPage(m *netsim.Meter, pageNo int) {
	if !t.store.buf.Touch(&t.pages, int32(pageNo)) {
		m.Add(t.store.cfg.IOTimeMS)
	}
}

// Iter is a sequential iterator over the table, the row-at-a-time
// reference ReadAll is tested against.
type Iter struct {
	table *Table
	m     *netsim.Meter
	i     int
}

// Scan starts a full table scan charging m.
func (t *Table) Scan(m *netsim.Meter) *Iter { return &Iter{table: t, m: m} }

// Probe returns the rows with attr = value through the hash index, in
// insertion order (nil when none), charging m the probe and then, per
// match, the page fetch (an I/O on a buffer miss) and the row's CPU time.
// It fails when no hash index exists (hash indexes serve equality only).
func (t *Table) Probe(m *netsim.Meter, attr string, op stats.CmpOp, value types.Constant) ([]types.Row, error) {
	if op != stats.CmpEQ {
		return nil, fmt.Errorf("relstore: hash index on %q serves equality only", attr)
	}
	idx, ok := t.hashIdx[strings.ToLower(attr)]
	if !ok {
		return nil, fmt.Errorf("relstore: %s has no index on %q", t.name, attr)
	}
	m.Add(t.store.cfg.HashProbeMS)
	positions := idx[value]
	if len(positions) == 0 {
		return nil, nil
	}
	out := make([]types.Row, len(positions))
	for i, p := range positions {
		t.touchPage(m, p/t.perPage)
		m.Add(t.store.cfg.CPUTimeMS)
		out[i] = t.rows[p]
	}
	return out, nil
}

// Next returns the next row.
func (it *Iter) Next() (types.Row, bool) {
	t := it.table
	if it.i >= len(t.rows) {
		return nil, false
	}
	if it.i%t.perPage == 0 {
		t.touchPage(it.m, it.i/t.perPage)
	}
	row := t.rows[it.i]
	it.i++
	it.m.Add(t.store.cfg.CPUTimeMS)
	return row, true
}

// ReadAll reads the whole table and charges it exactly as a Scan
// iterator would, a page at a time: the page fetch, then the per-tuple
// CPU time of the rows on it. It returns the table's own rows with the
// capacity pinned to the length, so a caller's append copies instead of
// writing into the heap file; the rows are read-only.
func (t *Table) ReadAll(m *netsim.Meter) []types.Row {
	rows := t.rows[:len(t.rows):len(t.rows)]
	for lo := 0; lo < len(rows); lo += t.perPage {
		t.touchPage(m, lo/t.perPage)
		m.AddN(t.store.cfg.CPUTimeMS, min(t.perPage, len(rows)-lo))
	}
	return rows
}

// DeliverOutput charges m the per-tuple delivery for n result rows.
func (s *Store) DeliverOutput(m *netsim.Meter, n int) {
	m.Add(float64(n) * s.cfg.OutputTimeMS)
}

// ExtentStats exports the table's extent statistics.
func (t *Table) ExtentStats() stats.ExtentStats {
	return stats.ExtentStats{
		CountObject: int64(len(t.rows)),
		TotalSize:   int64(t.PageCount() * t.store.cfg.PageSize),
		ObjectSize:  int64(t.rowSize),
	}
}

// AttributeStats computes the exported statistics of one attribute with
// stats.Summarize (registration-time work, no charge).
func (t *Table) AttributeStats(attr string) (stats.AttributeStats, error) {
	fi, ok := t.schema.Lookup(attr)
	if !ok {
		return stats.AttributeStats{}, fmt.Errorf("relstore: %s has no attribute %q", t.name, attr)
	}
	out := stats.Summarize(t.rows, fi)
	out.Indexed = t.HasIndex(attr)
	return out, nil
}
