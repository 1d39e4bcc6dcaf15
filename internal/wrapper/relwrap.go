package wrapper

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/relstore"
	"disco/internal/stats"
	"disco/internal/types"
)

// RelWrapper exposes a relational heap-file store. Its exported cost
// rules describe a source whose behaviour the generic object model gets
// wrong in both directions: equality probes through hash indexes are far
// cheaper than a generic index scan, while range predicates always pay a
// full sequential scan (hash indexes cannot serve ranges).
type RelWrapper struct {
	name  string
	store *relstore.Store
}

// NewRelWrapper wraps a store under the registered name.
func NewRelWrapper(name string, store *relstore.Store) *RelWrapper {
	return &RelWrapper{name: name, store: store}
}

// Store exposes the underlying store.
func (w *RelWrapper) Store() *relstore.Store { return w.store }

// Name implements Wrapper.
func (w *RelWrapper) Name() string { return w.name }

// Collections implements Wrapper.
func (w *RelWrapper) Collections() []string { return w.store.Tables() }

// Capabilities implements Wrapper.
func (w *RelWrapper) Capabilities() Capabilities { return AllCapabilities() }

// Schema implements Wrapper.
func (w *RelWrapper) Schema(collection string) (*types.Schema, error) {
	t, ok := w.store.Table(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: %s has no table %q", w.name, collection)
	}
	return t.Schema(), nil
}

// ExtentStats implements Wrapper.
func (w *RelWrapper) ExtentStats(collection string) (stats.ExtentStats, bool) {
	t, ok := w.store.Table(collection)
	if !ok {
		return stats.ExtentStats{}, false
	}
	return t.ExtentStats(), true
}

// AttributeStats implements Wrapper.
func (w *RelWrapper) AttributeStats(collection, attr string) (stats.AttributeStats, bool) {
	t, ok := w.store.Table(collection)
	if !ok {
		return stats.AttributeStats{}, false
	}
	st, err := t.AttributeStats(attr)
	if err != nil {
		return stats.AttributeStats{}, false
	}
	return st, true
}

// CostRules implements Wrapper.
func (w *RelWrapper) CostRules() string {
	cfg := w.store.Config()
	header := fmt.Sprintf(`
let PageSize = %d;
let IO = %g;
let CPU = %g;
let HProbe = %g;
let Output = %g;
`, cfg.PageSize, cfg.IOTimeMS, cfg.CPUTimeMS, cfg.HashProbeMS, cfg.OutputTimeMS)

	const body = `
scan(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = IO;
  TotalTime   = C.CountPage * IO + C.CountObject * CPU;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Hash probe: equality on an indexed attribute only. Matches may each
# fault a page, capped at the table's page count.
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, HProbe + IO);
  TotalTime   = require(C.A.Indexed,
      HProbe + min(CountObject, C.CountPage) * IO + CountObject * CPU);
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Any other predicate pays a full scan: hash indexes serve no ranges.
select(C, P) {
  CountObject = C.CountObject * predsel();
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = IO;
  TotalTime   = C.CountPage * IO + C.CountObject * CPU;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

join(C1, C2, A1 = A2) {
  CountObject = C1.CountObject * C2.CountObject * joinsel();
  ObjectSize  = C1.ObjectSize + C2.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = C1.TimeFirst + C2.TimeFirst;
  TotalTime   = C1.TotalTime + C2.TotalTime
              + (C1.CountObject + C2.CountObject) * CPU * 4
              + CountObject * CPU;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

submit(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = C.TimeFirst + Net.Latency;
  TotalTime   = C.TotalTime + C.CountObject * Output + Net.Latency + C.TotalSize * Net.PerByte;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
`
	return header + body
}

// relSource adapts the store to the shared evaluator.
type relSource struct{ store *relstore.Store }

func (s relSource) scanAll(m *netsim.Meter, collection string) ([]types.Row, error) {
	t, ok := s.store.Table(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: no table %q", collection)
	}
	return t.ReadAll(m), nil
}

func (s relSource) indexSelect(m *netsim.Meter, collection string, cmp algebra.Comparison) ([]types.Row, bool, error) {
	t, ok := s.store.Table(collection)
	if !ok {
		return nil, false, fmt.Errorf("wrapper: no table %q", collection)
	}
	if cmp.Op != stats.CmpEQ || !t.HasIndex(cmp.Left.Attr) {
		return nil, false, nil
	}
	rows, err := t.Probe(m, cmp.Left.Attr, cmp.Op, cmp.RightConst)
	if err != nil {
		return nil, false, nil
	}
	return rows, true, nil
}

func (s relSource) deliver(m *netsim.Meter, n int) { s.store.DeliverOutput(m, n) }

// Execute implements Wrapper.
func (w *RelWrapper) Execute(plan *algebra.Node) (*Result, error) {
	if err := checkCapabilities(w, plan); err != nil {
		return nil, err
	}
	return runSubplan(relSource{store: w.store}, plan)
}
