package wrapper

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/filestore"
	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

// FileWrapper exposes flat record files. It is the degenerate wrapper of
// the spectrum: it exports NO statistics and NO cost rules, and can only
// scan and filter — the mediator must carry the whole estimate with its
// default scope and "standard values" (paper §6).
type FileWrapper struct {
	name  string
	store *filestore.Store
}

// NewFileWrapper wraps a file store under the registered name.
func NewFileWrapper(name string, store *filestore.Store) *FileWrapper {
	return &FileWrapper{name: name, store: store}
}

// Store exposes the underlying store.
func (w *FileWrapper) Store() *filestore.Store { return w.store }

// Name implements Wrapper.
func (w *FileWrapper) Name() string { return w.name }

// Collections implements Wrapper.
func (w *FileWrapper) Collections() []string { return w.store.Files() }

// Capabilities implements Wrapper: files can be scanned, filtered and
// projected, nothing more.
func (w *FileWrapper) Capabilities() Capabilities {
	return Capabilities{Select: true, Project: true}
}

// Schema implements Wrapper.
func (w *FileWrapper) Schema(collection string) (*types.Schema, error) {
	f, ok := w.store.File(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: %s has no file %q", w.name, collection)
	}
	return f.Schema(), nil
}

// ExtentStats implements Wrapper: files export no statistics.
func (w *FileWrapper) ExtentStats(string) (stats.ExtentStats, bool) {
	return stats.ExtentStats{}, false
}

// AttributeStats implements Wrapper: files export no statistics.
func (w *FileWrapper) AttributeStats(string, string) (stats.AttributeStats, bool) {
	return stats.AttributeStats{}, false
}

// CostRules implements Wrapper: files export no rules.
func (w *FileWrapper) CostRules() string { return "" }

// fileSource adapts the store to the shared evaluator.
type fileSource struct{ store *filestore.Store }

func (s fileSource) scanAll(m *netsim.Meter, collection string) ([]types.Row, error) {
	f, ok := s.store.File(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: no file %q", collection)
	}
	return f.ReadAll(m), nil
}

func (s fileSource) indexSelect(*netsim.Meter, string, algebra.Comparison) ([]types.Row, bool, error) {
	return nil, false, nil // files have no indexes
}

func (s fileSource) deliver(m *netsim.Meter, n int) { s.store.DeliverOutput(m, n) }

// Execute implements Wrapper.
func (w *FileWrapper) Execute(plan *algebra.Node) (*Result, error) {
	if err := checkCapabilities(w, plan); err != nil {
		return nil, err
	}
	return runSubplan(fileSource{store: w.store}, plan)
}
