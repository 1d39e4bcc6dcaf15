package wrapper

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/objstore"
	"disco/internal/stats"
	"disco/internal/types"
)

// ObjWrapper exposes a simulated object store (internal/objstore) to the
// mediator. It is the "sophisticated" wrapper of the reproduction: it
// exports full statistics and the Yao-based cost rules of the paper's
// Figure 13, with a clustering-aware variant — exactly the knowledge a
// generic mediator model cannot have.
type ObjWrapper struct {
	name  string
	store *objstore.Store
}

// NewObjWrapper wraps a store under the given registered name.
func NewObjWrapper(name string, store *objstore.Store) *ObjWrapper {
	return &ObjWrapper{name: name, store: store}
}

// Store exposes the underlying store (experiments reset its buffer pool
// between runs).
func (w *ObjWrapper) Store() *objstore.Store { return w.store }

// Name implements Wrapper.
func (w *ObjWrapper) Name() string { return w.name }

// Collections implements Wrapper.
func (w *ObjWrapper) Collections() []string { return w.store.Collections() }

// Capabilities implements Wrapper: the object source executes the full
// algebra.
func (w *ObjWrapper) Capabilities() Capabilities { return AllCapabilities() }

// Schema implements Wrapper.
func (w *ObjWrapper) Schema(collection string) (*types.Schema, error) {
	c, ok := w.store.Collection(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: %s has no collection %q", w.name, collection)
	}
	return c.Schema(), nil
}

// ExtentStats implements Wrapper.
func (w *ObjWrapper) ExtentStats(collection string) (stats.ExtentStats, bool) {
	c, ok := w.store.Collection(collection)
	if !ok {
		return stats.ExtentStats{}, false
	}
	return c.ExtentStats(), true
}

// AttributeStats implements Wrapper.
func (w *ObjWrapper) AttributeStats(collection, attr string) (stats.AttributeStats, bool) {
	c, ok := w.store.Collection(collection)
	if !ok {
		return stats.AttributeStats{}, false
	}
	st, err := c.AttributeStats(attr)
	if err != nil {
		return stats.AttributeStats{}, false
	}
	return st, true
}

// CostRules implements Wrapper: the exported cost model, parameterized by
// the store's measured constants. The select rules are the paper's
// Figure 13 generalization: Yao page fetches for unclustered indexes,
// linear page range for clustered ones, with require() guards so the rule
// declines (and the hierarchy falls back) when no index applies.
func (w *ObjWrapper) CostRules() string {
	cfg := w.store.Config()
	header := fmt.Sprintf(`
let PageSize = %d;
let IO = %g;
let Output = %g;
let CPU = %g;
let Probe = %g;
`, cfg.PageSize, cfg.IOTimeMS, cfg.OutputTimeMS, cfg.CPUTimeMS, cfg.ProbeTimeMS)

	const body = `
# Sequential scan: every page once, CPU per object.
scan(C) {
  CountObject = C.CountObject;
  ObjectSize  = C.ObjectSize;
  TotalSize   = C.TotalSize;
  TimeFirst   = IO;
  TotalTime   = C.CountPage * IO + C.CountObject * CPU;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Index selection (equality and ranges): page fetches follow Yao's
# function for unclustered placement, a linear fraction for clustered.
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IO + Probe);
  TotalTime   = require(C.A.Indexed,
      IO * C.CountPage * if(C.A.Clustered,
          CountObject / max(C.CountObject, 1),
          1 - exp(0 - CountObject / C.CountPage))
      + CountObject * (CPU + Probe));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A < V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IO + Probe);
  TotalTime   = require(C.A.Indexed,
      IO * C.CountPage * if(C.A.Clustered,
          CountObject / max(C.CountObject, 1),
          1 - exp(0 - CountObject / C.CountPage))
      + CountObject * (CPU + Probe));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A <= V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IO + Probe);
  TotalTime   = require(C.A.Indexed,
      IO * C.CountPage * if(C.A.Clustered,
          CountObject / max(C.CountObject, 1),
          1 - exp(0 - CountObject / C.CountPage))
      + CountObject * (CPU + Probe));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A > V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IO + Probe);
  TotalTime   = require(C.A.Indexed,
      IO * C.CountPage * if(C.A.Clustered,
          CountObject / max(C.CountObject, 1),
          1 - exp(0 - CountObject / C.CountPage))
      + CountObject * (CPU + Probe));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}
select(C, A >= V) {
  CountObject = C.CountObject * selectivity(A, V);
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = require(C.A.Indexed, IO + Probe);
  TotalTime   = require(C.A.Indexed,
      IO * C.CountPage * if(C.A.Clustered,
          CountObject / max(C.CountObject, 1),
          1 - exp(0 - CountObject / C.CountPage))
      + CountObject * (CPU + Probe));
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Sequential selection fallback: full scan plus filter.
select(C, P) {
  CountObject = C.CountObject * predsel();
  ObjectSize  = C.ObjectSize;
  TotalSize   = CountObject * ObjectSize;
  TimeFirst   = IO;
  TotalTime   = C.CountPage * IO + C.CountObject * CPU;
  TimeNext    = (TotalTime - TimeFirst) / max(CountObject, 1);
}

# Local equi-join: the source hash-joins materialized inputs.
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

# Result delivery at the wrapper boundary.
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

// objSource adapts the store to the shared evaluator.
type objSource struct{ store *objstore.Store }

func (s objSource) scanAll(m *netsim.Meter, collection string) ([]types.Row, error) {
	c, ok := s.store.Collection(collection)
	if !ok {
		return nil, fmt.Errorf("wrapper: no collection %q", collection)
	}
	return c.ReadAll(m), nil
}

func (s objSource) indexSelect(m *netsim.Meter, collection string, cmp algebra.Comparison) ([]types.Row, bool, error) {
	c, ok := s.store.Collection(collection)
	if !ok {
		return nil, false, fmt.Errorf("wrapper: no collection %q", collection)
	}
	if indexed, _ := c.HasIndex(cmp.Left.Attr); !indexed || cmp.Op == stats.CmpNE {
		return nil, false, nil
	}
	rows, err := c.IndexSelect(m, cmp.Left.Attr, cmp.Op, cmp.RightConst)
	if err != nil {
		return nil, false, nil
	}
	return rows, true, nil
}

func (s objSource) deliver(m *netsim.Meter, n int) { s.store.DeliverOutput(m, n) }

// Execute implements Wrapper.
func (w *ObjWrapper) Execute(plan *algebra.Node) (*Result, error) {
	if err := checkCapabilities(w, plan); err != nil {
		return nil, err
	}
	return runSubplan(objSource{store: w.store}, plan)
}
