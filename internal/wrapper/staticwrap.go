package wrapper

import (
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/idl"
	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
)

// StaticWrapper is a wrapper declared entirely by the wrapper implementor,
// the way the paper's §3 envisions: a CORBA-IDL subset interface file
// defines the collections, hand-written cardinality methods return the
// statistics (Figure 6), and cost sections carry the exported rules. Data
// lives in in-memory rows; execution charges a flat per-record time. It
// is the reproduction's stand-in for bespoke sources such as bibliographic
// or multimedia files (§7).
type StaticWrapper struct {
	name  string
	file  *idl.File
	colls map[string]*staticCollection
	// PerRecordMS is the scan cost per record; delivery is free (the
	// declared rules describe whatever the implementor wants).
	PerRecordMS float64
}

type staticCollection struct {
	iface  *idl.Interface
	schema *types.Schema
	rows   []types.Row
	extent *stats.ExtentStats
	attrs  map[string]stats.AttributeStats
}

// NewStaticWrapper parses the IDL source and prepares one collection per
// interface.
func NewStaticWrapper(name, idlSrc string) (*StaticWrapper, error) {
	file, err := idl.Parse(idlSrc)
	if err != nil {
		return nil, err
	}
	w := &StaticWrapper{
		name:        name,
		file:        file,
		colls:       make(map[string]*staticCollection),
		PerRecordMS: 0.5,
	}
	for _, iface := range file.Interfaces {
		w.colls[strings.ToLower(iface.Name)] = &staticCollection{
			iface:  iface,
			schema: iface.Schema(),
			attrs:  make(map[string]stats.AttributeStats),
		}
	}
	return w, nil
}

func (w *StaticWrapper) collection(name string) (*staticCollection, error) {
	c, ok := w.colls[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("wrapper: %s has no collection %q", w.name, name)
	}
	return c, nil
}

// Load stores the rows of one collection.
func (w *StaticWrapper) Load(collection string, rows []types.Row) error {
	c, err := w.collection(collection)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if len(r) != c.schema.Len() {
			return fmt.Errorf("wrapper: %s/%s: row arity %d, schema %d",
				w.name, collection, len(r), c.schema.Len())
		}
	}
	c.rows = append(c.rows, rows...)
	return nil
}

// DeclareExtent sets the collection's exported extent statistics — the
// implementor's hand-written extent method (paper Figure 6). The IDL must
// declare the cardinality extent method.
func (w *StaticWrapper) DeclareExtent(collection string, e stats.ExtentStats) error {
	c, err := w.collection(collection)
	if err != nil {
		return err
	}
	if !c.iface.HasExtentCard {
		return fmt.Errorf("wrapper: %s/%s declares no cardinality extent method", w.name, collection)
	}
	c.extent = &e
	return nil
}

// DeclareAttribute sets one attribute's exported statistics — the
// implementor's attribute method.
func (w *StaticWrapper) DeclareAttribute(collection, attr string, a stats.AttributeStats) error {
	c, err := w.collection(collection)
	if err != nil {
		return err
	}
	if !c.iface.HasAttributeCard {
		return fmt.Errorf("wrapper: %s/%s declares no cardinality attribute method", w.name, collection)
	}
	if _, ok := c.schema.Lookup(attr); !ok {
		return fmt.Errorf("wrapper: %s/%s has no attribute %q", w.name, collection, attr)
	}
	c.attrs[strings.ToLower(attr)] = a
	return nil
}

// Name implements Wrapper.
func (w *StaticWrapper) Name() string { return w.name }

// Collections implements Wrapper (declaration order).
func (w *StaticWrapper) Collections() []string {
	out := make([]string, 0, len(w.file.Interfaces))
	for _, iface := range w.file.Interfaces {
		out = append(out, iface.Name)
	}
	return out
}

// Capabilities implements Wrapper: a declared source scans, filters and
// projects.
func (w *StaticWrapper) Capabilities() Capabilities {
	return Capabilities{Select: true, Project: true}
}

// Schema implements Wrapper.
func (w *StaticWrapper) Schema(collection string) (*types.Schema, error) {
	c, err := w.collection(collection)
	if err != nil {
		return nil, err
	}
	return c.schema, nil
}

// ExtentStats implements Wrapper: only declared statistics are exported.
func (w *StaticWrapper) ExtentStats(collection string) (stats.ExtentStats, bool) {
	c, err := w.collection(collection)
	if err != nil || c.extent == nil {
		return stats.ExtentStats{}, false
	}
	return *c.extent, true
}

// AttributeStats implements Wrapper.
func (w *StaticWrapper) AttributeStats(collection, attr string) (stats.AttributeStats, bool) {
	c, err := w.collection(collection)
	if err != nil {
		return stats.AttributeStats{}, false
	}
	a, ok := c.attrs[strings.ToLower(attr)]
	return a, ok
}

// CostRules implements Wrapper: the IDL cost sections, merged.
func (w *StaticWrapper) CostRules() string {
	return strings.TrimSpace(w.file.AllRules())
}

// staticSource adapts the wrapper to the shared evaluator.
type staticSource struct{ w *StaticWrapper }

func (s staticSource) scanAll(m *netsim.Meter, collection string) ([]types.Row, error) {
	c, err := s.w.collection(collection)
	if err != nil {
		return nil, err
	}
	m.Add(float64(len(c.rows)) * s.w.PerRecordMS)
	return c.rows, nil
}

func (s staticSource) indexSelect(*netsim.Meter, string, algebra.Comparison) ([]types.Row, bool, error) {
	return nil, false, nil // declared sources expose no physical indexes
}

func (s staticSource) deliver(*netsim.Meter, int) {}

// Execute implements Wrapper.
func (w *StaticWrapper) Execute(plan *algebra.Node) (*Result, error) {
	if err := checkCapabilities(w, plan); err != nil {
		return nil, err
	}
	return runSubplan(staticSource{w: w}, plan)
}
