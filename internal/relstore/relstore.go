// Package relstore implements a heap-file relational engine with hash
// indexes — the second data-source class of the reproduction. Its cost
// behaviour differs from the object store on purpose: faster page I/O,
// equality-only (hash) indexes, no range index scans. A mediator relying
// on one generic cost model mispredicts one of the two source classes;
// blending per-wrapper rules fixes that (the paper's central claim).
//
// A full read (Table.ReadAll) charges a page at a time, exactly as the
// Scan iterator charges row by row, and returns the heap file's own rows:
// rows a table returns are read-only to every caller.
package relstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

// Store is a set of tables sharing a clock and timing profile.
type Store struct {
	cfg    Config
	clock  *netsim.Clock
	tables map[string]*Table
	// Buffer accounting is per-store, approximated per table page set.
	// cacheMu makes the accounting safe under concurrent scans — the
	// mediator executes many queries at once against one store.
	cacheMu sync.Mutex
	cached  map[string]map[int]struct{}
}

// Open creates a store on the clock (nil allocates one).
func Open(cfg Config, clock *netsim.Clock) *Store {
	if clock == nil {
		clock = netsim.NewClock()
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 8192
	}
	return &Store{cfg: cfg, clock: clock, tables: make(map[string]*Table),
		cached: make(map[string]map[int]struct{})}
}

// Clock returns the store's virtual clock.
func (s *Store) Clock() *netsim.Clock { return s.clock }

// Config returns the store's configuration.
func (s *Store) Config() Config { return s.cfg }

// ResetBuffer drops all cached pages (cold-start measurements).
func (s *Store) ResetBuffer() {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cached = make(map[string]map[int]struct{})
}

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
	hashIdx  map[string]map[string][]int // attr -> key -> row positions
	idxAttrs map[string]int              // attr -> field position
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
		hashIdx: make(map[string]map[string][]int), idxAttrs: make(map[string]int)}
	s.tables[name] = t
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the row schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// PageCount reports how many heap pages the table occupies.
func (t *Table) PageCount() int { return (len(t.rows) + t.perPage - 1) / t.perPage }

// Insert appends a row (bulk load; no clock cost).
func (t *Table) Insert(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("relstore: %s: row arity %d, schema %d", t.name, len(row), t.schema.Len())
	}
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	for attr, fi := range t.idxAttrs {
		key := t.rows[pos][fi].Kind().String() + ":" + t.rows[pos][fi].String()
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
	m := make(map[string][]int)
	for pos, row := range t.rows {
		k := row[fi].Kind().String() + ":" + row[fi].String()
		m[k] = append(m[k], pos)
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

// touchPage charges a page fetch unless cached.
func (t *Table) touchPage(pageNo int) {
	t.store.cacheMu.Lock()
	pages := t.store.cached[t.name]
	if pages == nil {
		pages = make(map[int]struct{})
		t.store.cached[t.name] = pages
	}
	if _, hit := pages[pageNo]; hit {
		t.store.cacheMu.Unlock()
		return
	}
	// Evict-free approximation: the relational server's cache is large;
	// capacity pressure is modelled only across ResetBuffer boundaries.
	if len(pages) < t.store.cfg.BufferPages {
		pages[pageNo] = struct{}{}
	}
	t.store.cacheMu.Unlock()
	t.store.clock.Advance(t.store.cfg.IOTimeMS)
}

// Iter is a sequential or probe iterator over the table.
type Iter struct {
	table *Table
	pos   []int // explicit positions (probe); nil = sequential
	i     int
}

// Scan starts a full table scan.
func (t *Table) Scan() *Iter { return &Iter{table: t} }

// Probe starts a hash-index probe for attr = value; it fails when no hash
// index exists (hash indexes serve equality only).
func (t *Table) Probe(attr string, op stats.CmpOp, value types.Constant) (*Iter, error) {
	if op != stats.CmpEQ {
		return nil, fmt.Errorf("relstore: hash index on %q serves equality only", attr)
	}
	idx, ok := t.hashIdx[strings.ToLower(attr)]
	if !ok {
		return nil, fmt.Errorf("relstore: %s has no index on %q", t.name, attr)
	}
	t.store.clock.Advance(t.store.cfg.HashProbeMS)
	key := value.Kind().String() + ":" + value.String()
	positions := idx[key]
	if positions == nil {
		positions = []int{}
	}
	return &Iter{table: t, pos: positions}, nil
}

// Next returns the next row.
func (it *Iter) Next() (types.Row, bool) {
	t := it.table
	if it.pos != nil {
		if it.i >= len(it.pos) {
			return nil, false
		}
		p := it.pos[it.i]
		it.i++
		t.touchPage(p / t.perPage)
		t.store.clock.Advance(t.store.cfg.CPUTimeMS)
		return t.rows[p], true
	}
	if it.i >= len(t.rows) {
		return nil, false
	}
	if it.i%t.perPage == 0 {
		t.touchPage(it.i / t.perPage)
	}
	row := t.rows[it.i]
	it.i++
	t.store.clock.Advance(t.store.cfg.CPUTimeMS)
	return row, true
}

// ReadAll reads the whole table and charges it exactly as a Scan
// iterator would, a page at a time: the page fetch, then the per-tuple
// CPU time of the rows on it. It returns the table's own rows with the
// capacity pinned to the length, so a caller's append copies instead of
// writing into the heap file; the rows are read-only.
func (t *Table) ReadAll() []types.Row {
	rows := t.rows[:len(t.rows):len(t.rows)]
	for lo := 0; lo < len(rows); lo += t.perPage {
		t.touchPage(lo / t.perPage)
		t.store.clock.AdvanceN(t.store.cfg.CPUTimeMS, min(t.perPage, len(rows)-lo))
	}
	return rows
}

// DeliverOutput charges per-tuple delivery for n result rows.
func (s *Store) DeliverOutput(n int) {
	s.clock.Advance(float64(n) * s.cfg.OutputTimeMS)
}

// ExtentStats exports the table's extent statistics.
func (t *Table) ExtentStats() stats.ExtentStats {
	return stats.ExtentStats{
		CountObject: int64(len(t.rows)),
		TotalSize:   int64(t.PageCount() * t.store.cfg.PageSize),
		ObjectSize:  int64(t.rowSize),
	}
}

// AttributeStats exports statistics for one attribute; buckets > 0 adds an
// equi-depth histogram over numeric values.
func (t *Table) AttributeStats(attr string, buckets int) (stats.AttributeStats, error) {
	fi, ok := t.schema.Lookup(attr)
	if !ok {
		return stats.AttributeStats{}, fmt.Errorf("relstore: %s has no attribute %q", t.name, attr)
	}
	out := stats.AttributeStats{Indexed: t.HasIndex(attr)}
	distinct := make(map[string]struct{})
	var values []types.Constant
	for i, row := range t.rows {
		v := row[fi]
		distinct[v.Kind().String()+":"+v.String()] = struct{}{}
		if i == 0 || v.Less(out.Min) {
			out.Min = v
		}
		if i == 0 || out.Max.Less(v) {
			out.Max = v
		}
		if buckets > 0 && v.IsNumeric() {
			values = append(values, v)
		}
	}
	out.CountDistinct = int64(len(distinct))
	if buckets > 0 && len(values) > 0 {
		out.Histogram = stats.NewEquiDepth(values, buckets)
	}
	return out, nil
}
