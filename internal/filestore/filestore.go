// Package filestore implements the simplest data-source class of the
// reproduction: flat record files (CSV-like), scanned sequentially
// record by record. A file source exports NO statistics and NO cost rules
// — querying it exercises the mediator's pure default-scope path ("in
// case they are not provided, standard values are given, as usual",
// paper §6).
//
// Every read charges the caller's execution meter. A full read
// (File.ReadAll) charges the open and every record's parse time, exactly
// as the Scan iterator does, and returns the file's own records: records
// a file returns are read-only to every caller.
package filestore

import (
	"fmt"
	"sort"

	"disco/internal/netsim"
	"disco/internal/types"
)

// Config holds the timing profile of the file source.
type Config struct {
	ReadRecordMS float64 // per record parsed
	OpenMS       float64 // per file open
	OutputTimeMS float64 // per record delivered
}

// DefaultConfig models a slow, parse-heavy source.
func DefaultConfig() Config {
	return Config{ReadRecordMS: 0.4, OpenMS: 50, OutputTimeMS: 2}
}

// Store holds named record files.
type Store struct {
	cfg   Config
	files map[string]*File
}

// Open creates a store.
func Open(cfg Config) *Store {
	return &Store{cfg: cfg, files: make(map[string]*File)}
}

// Files lists file names, sorted.
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// File returns a file by name.
func (s *Store) File(name string) (*File, bool) {
	f, ok := s.files[name]
	return f, ok
}

// File is one record file with a declared schema.
type File struct {
	store  *Store
	name   string
	schema *types.Schema
	rows   []types.Row
}

// CreateFile registers an empty record file.
func (s *Store) CreateFile(name string, schema *types.Schema) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("filestore: file %q already exists", name)
	}
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("filestore: file %q needs a schema", name)
	}
	f := &File{store: s, name: name, schema: schema}
	s.files[name] = f
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Schema returns the record schema.
func (f *File) Schema() *types.Schema { return f.schema }

// Append adds one record (loading is not timed).
func (f *File) Append(row types.Row) error {
	if len(row) != f.schema.Len() {
		return fmt.Errorf("filestore: %s: record arity %d, schema %d", f.name, len(row), f.schema.Len())
	}
	f.rows = append(f.rows, row)
	return nil
}

// Iter reads records sequentially, charging per-record parse time.
type Iter struct {
	file   *File
	m      *netsim.Meter
	i      int
	opened bool
}

// Scan starts reading the file from the beginning, charging m.
func (f *File) Scan(m *netsim.Meter) *Iter { return &Iter{file: f, m: m} }

// Next returns the next record.
func (it *Iter) Next() (types.Row, bool) {
	f := it.file
	if !it.opened {
		it.m.Add(f.store.cfg.OpenMS)
		it.opened = true
	}
	if it.i >= len(f.rows) {
		return nil, false
	}
	row := f.rows[it.i]
	it.i++
	it.m.Add(f.store.cfg.ReadRecordMS)
	return row, true
}

// ReadAll reads the whole file and charges it exactly as a Scan iterator
// would: the open, then the parse time of every record. It returns the
// file's own records with the capacity pinned to the length, so a
// caller's append copies; the records are read-only.
func (f *File) ReadAll(m *netsim.Meter) []types.Row {
	rows := f.rows[:len(f.rows):len(f.rows)]
	m.Add(f.store.cfg.OpenMS)
	m.AddN(f.store.cfg.ReadRecordMS, len(rows))
	return rows
}

// DeliverOutput charges m the per-record delivery for n result records.
func (s *Store) DeliverOutput(m *netsim.Meter, n int) {
	m.Add(float64(n) * s.cfg.OutputTimeMS)
}
