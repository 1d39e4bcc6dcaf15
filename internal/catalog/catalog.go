// Package catalog implements the mediator catalog: the registration-phase
// store of wrapper schemas, capabilities and statistics (paper §2.1,
// Figure 1 steps 1-2). It implements both the schema source the plan
// resolver needs and the CatalogView the cost model reads statistics
// through.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// CollectionInfo is the registered knowledge about one collection.
type CollectionInfo struct {
	Schema    *types.Schema
	Extent    stats.ExtentStats
	HasExtent bool
	Attrs     map[string]stats.AttributeStats // lower-cased attribute name
}

// Entry is the registered knowledge about one wrapper.
type Entry struct {
	Name        string
	Caps        wrapper.Capabilities
	Collections map[string]*CollectionInfo
	CostRules   string
}

// Catalog stores registration results. It is not internally synchronized:
// the mediator serializes mutation (Install and the feedback adjuster's
// statistics writes) behind its write lock and reads behind its read
// lock; Collect touches no catalog and runs outside both. The epoch
// counter lets cached artifacts derived from catalog state (prepared
// plans, most importantly) detect that a (re-)registration happened
// since they were built.
type Catalog struct {
	entries map[string]*Entry
	epoch   uint64
}

// New returns an empty catalog at epoch zero.
func New() *Catalog { return &Catalog{entries: make(map[string]*Entry)} }

// Epoch returns the registration epoch: it starts at zero and is bumped by
// every Install (so every Register). Two reads returning the same epoch
// bracket a span in which no wrapper was added or replaced, so any plan
// bound against the catalog at that epoch is still executable.
func (c *Catalog) Epoch() uint64 { return c.epoch }

// Register uploads a wrapper's schema, capabilities and statistics into
// the catalog (the paper's registration phase: the mediator calls the
// wrapper's extent and attribute cardinality methods and stores the
// results). Re-registering a name replaces the previous entry. It is
// Collect followed by Install.
func (c *Catalog) Register(w wrapper.Wrapper) error {
	e, err := Collect(w)
	if err != nil {
		return err
	}
	c.Install(e)
	return nil
}

// Collect is the wrapper-facing half of Register: it asks the wrapper
// for its capabilities, cost rules, schemas and statistics and returns
// the entry they make, touching no catalog. It is the slow half (a
// store's statistics are a pass over its data), so the mediator runs it
// before taking its write lock.
func Collect(w wrapper.Wrapper) (*Entry, error) {
	name := w.Name()
	if name == "" {
		return nil, fmt.Errorf("catalog: wrapper has no name")
	}
	e := &Entry{
		Name:        name,
		Caps:        w.Capabilities(),
		Collections: make(map[string]*CollectionInfo),
		CostRules:   w.CostRules(),
	}
	for _, coll := range w.Collections() {
		schema, err := w.Schema(coll)
		if err != nil {
			return nil, fmt.Errorf("catalog: registering %s/%s: %w", name, coll, err)
		}
		info := &CollectionInfo{Schema: schema, Attrs: make(map[string]stats.AttributeStats)}
		if ext, ok := w.ExtentStats(coll); ok {
			info.Extent = ext
			info.HasExtent = true
		}
		for i := 0; i < schema.Len(); i++ {
			attr := schema.Field(i).Name
			if ast, ok := w.AttributeStats(coll, attr); ok {
				info.Attrs[strings.ToLower(attr)] = ast
			}
		}
		e.Collections[coll] = info
	}
	return e, nil
}

// Install publishes a collected entry, replacing any entry of the same
// name, and bumps the epoch.
func (c *Catalog) Install(e *Entry) {
	c.entries[e.Name] = e
	c.epoch++
}

// Wrappers lists registered wrapper names, sorted.
func (c *Catalog) Wrappers() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Entry returns a wrapper's registration record.
func (c *Catalog) Entry(name string) (*Entry, bool) {
	e, ok := c.entries[name]
	return e, ok
}

// Capabilities returns a wrapper's advertised operator set.
func (c *Catalog) Capabilities(name string) (wrapper.Capabilities, bool) {
	e, ok := c.entries[name]
	if !ok {
		return wrapper.Capabilities{}, false
	}
	return e.Caps, true
}

// Collections lists a wrapper's collections, sorted.
func (c *Catalog) Collections(name string) []string {
	e, ok := c.entries[name]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(e.Collections))
	for n := range e.Collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FindCollection locates a collection by name across all wrappers,
// returning the owning wrapper names (a collection name may exist at
// several sources).
func (c *Catalog) FindCollection(collection string) []string {
	var out []string
	for name, e := range c.entries {
		for coll := range e.Collections {
			if strings.EqualFold(coll, collection) {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (c *Catalog) collection(wrapperName, collection string) (*CollectionInfo, bool) {
	e, ok := c.entries[wrapperName]
	if !ok {
		return nil, false
	}
	if info, ok := e.Collections[collection]; ok {
		return info, true
	}
	// Case-insensitive fallback.
	for name, info := range e.Collections {
		if strings.EqualFold(name, collection) {
			return info, true
		}
	}
	return nil, false
}

// CollectionSchema implements algebra.SchemaSource.
func (c *Catalog) CollectionSchema(wrapperName, collection string) (*types.Schema, error) {
	info, ok := c.collection(wrapperName, collection)
	if !ok {
		return nil, fmt.Errorf("catalog: unknown collection %s@%s", collection, wrapperName)
	}
	return info.Schema, nil
}

// HasCollection implements core.CatalogView.
func (c *Catalog) HasCollection(wrapperName, collection string) bool {
	_, ok := c.collection(wrapperName, collection)
	return ok
}

// HasAttribute implements core.CatalogView.
func (c *Catalog) HasAttribute(wrapperName, collection, attr string) bool {
	if collection != "" {
		info, ok := c.collection(wrapperName, collection)
		if !ok {
			return false
		}
		_, ok = info.Schema.Lookup(attr)
		return ok
	}
	e, ok := c.entries[wrapperName]
	if !ok {
		return false
	}
	for _, info := range e.Collections {
		if _, ok := info.Schema.Lookup(attr); ok {
			return true
		}
	}
	return false
}

// Extent implements core.CatalogView.
func (c *Catalog) Extent(wrapperName, collection string) (stats.ExtentStats, bool) {
	info, ok := c.collection(wrapperName, collection)
	if !ok || !info.HasExtent {
		return stats.ExtentStats{}, false
	}
	return info.Extent, true
}

// Attribute implements core.CatalogView.
func (c *Catalog) Attribute(wrapperName, collection, attr string) (stats.AttributeStats, bool) {
	info, ok := c.collection(wrapperName, collection)
	if !ok {
		return stats.AttributeStats{}, false
	}
	ast, ok := info.Attrs[strings.ToLower(attr)]
	return ast, ok
}

// String summarizes the catalog for diagnostics.
func (c *Catalog) String() string {
	var b strings.Builder
	for _, w := range c.Wrappers() {
		e := c.entries[w]
		fmt.Fprintf(&b, "wrapper %s:\n", w)
		for _, coll := range c.Collections(w) {
			info := e.Collections[coll]
			fmt.Fprintf(&b, "  %s %s", coll, info.Schema)
			if info.HasExtent {
				fmt.Fprintf(&b, " [%d objects, %d bytes]", info.Extent.CountObject, info.Extent.TotalSize)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
