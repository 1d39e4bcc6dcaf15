// Package wrapper implements the DISCO wrapper framework (paper §2): the
// interface a data source presents to the mediator — schema, capabilities,
// statistics and cost rules exported at registration time (Figure 1), and
// subplan execution during the query phase (Figure 2) — plus wrapper
// implementations for the three source classes of the reproduction
// (object store, relational store, record files).
package wrapper

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/netsim"
	"disco/internal/stats"
	"disco/internal/types"
	"disco/internal/vexec"
)

// Capabilities lists the algebra operators a wrapper can execute locally.
// The mediator pushes down only what a wrapper advertises (the paper
// assumes all wrappers execute all operations and defers the general
// problem to [KTV97]; the flag set keeps the reproduction honest about
// the file source, which can only scan).
type Capabilities struct {
	Select    bool
	Project   bool
	Join      bool
	Sort      bool
	Aggregate bool
	Union     bool
	DupElim   bool
}

// AllCapabilities advertises every operator.
func AllCapabilities() Capabilities {
	return Capabilities{Select: true, Project: true, Join: true, Sort: true,
		Aggregate: true, Union: true, DupElim: true}
}

// Supports reports whether the operator kind may be pushed into the
// wrapper.
func (c Capabilities) Supports(k algebra.OpKind) bool {
	switch k {
	case algebra.OpScan:
		return true
	case algebra.OpSelect:
		return c.Select
	case algebra.OpProject:
		return c.Project
	case algebra.OpJoin:
		return c.Join
	case algebra.OpSort:
		return c.Sort
	case algebra.OpAggregate:
		return c.Aggregate
	case algebra.OpUnion:
		return c.Union
	case algebra.OpDupElim:
		return c.DupElim
	default:
		return false
	}
}

// Result is the materialized answer of one wrapper subquery.
type Result struct {
	Rows   []types.Row
	Schema *types.Schema
	// Bytes is the estimated wire size the network layer ships.
	Bytes int64
	// VirtualMS is the wrapper's own work on this execution in virtual
	// milliseconds (for a remote wrapper also its retry backoffs),
	// summed from zero on the execution's meter.
	VirtualMS float64
}

// Wrapper is the registration- and query-phase interface of a data source.
type Wrapper interface {
	// Name is the wrapper's registered identity.
	Name() string
	// Collections lists the exported collection names.
	Collections() []string
	// Schema returns the row schema of a collection.
	Schema(collection string) (*types.Schema, error)
	// Capabilities advertises the executable operator set.
	Capabilities() Capabilities
	// ExtentStats returns the exported extent statistics; ok is false
	// when the wrapper exports none for the collection.
	ExtentStats(collection string) (stats.ExtentStats, bool)
	// AttributeStats returns the exported statistics of one attribute.
	AttributeStats(collection, attr string) (stats.AttributeStats, bool)
	// CostRules returns the wrapper's cost-language source exported at
	// registration time; empty means the mediator's generic model alone
	// covers this source.
	CostRules() string
	// Execute runs a resolved subplan against the source and returns the
	// materialized result with the virtual time it took. A failed
	// execution may still return a Result carrying only VirtualMS, the
	// time the failure cost.
	Execute(plan *algebra.Node) (*Result, error)
}

// planSource is the access-path interface the shared subplan evaluator
// needs from a concrete store. Every access charges the execution's
// meter m.
type planSource interface {
	scanAll(m *netsim.Meter, collection string) ([]types.Row, error)
	// indexSelect attempts to answer `collection WHERE cmp` through an
	// index; ok is false when no suitable access path exists.
	indexSelect(m *netsim.Meter, collection string, cmp algebra.Comparison) ([]types.Row, bool, error)
	deliver(m *netsim.Meter, n int)
}

// execPlan evaluates a resolved subplan against a source through the
// vectorized batch pipeline. The source-specific access paths live in
// the pipeline's Leaf hook: scans read the store, and selections
// directly over scans try an index access path for one sargable
// conjunct, mirroring source autonomy — the wrapper, not the mediator,
// picks its access method. Everything else (projections, sorts, joins a
// capable wrapper accepted) runs on the generic batch operators, never
// spilling: the spill budget is a mediator-side feature, and a wrapper's
// virtual time is charged by its store, not by operator formulas.
func execPlan(src planSource, m *netsim.Meter, n *algebra.Node) ([]types.Row, error) {
	return vexec.Run(n, &vexec.Env{Leaf: func(n *algebra.Node) ([]types.Row, bool, error) {
		switch n.Kind {
		case algebra.OpScan:
			rows, err := src.scanAll(m, n.Collection)
			return rows, true, err

		case algebra.OpSelect:
			child := n.Children[0]
			if child.Kind != algebra.OpScan || n.Pred == nil {
				return nil, false, nil
			}
			for i, cmp := range n.Pred.Conjuncts {
				if cmp.IsJoin() {
					continue
				}
				rows, ok, err := src.indexSelect(m, child.Collection, cmp)
				if err != nil {
					return nil, true, err
				}
				if !ok {
					continue
				}
				rest := &algebra.Predicate{}
				for j, c := range n.Pred.Conjuncts {
					if j != i {
						rest.Conjuncts = append(rest.Conjuncts, c.Clone())
					}
				}
				return vexec.Filter(n.OutSchema, rows, rest), true, nil
			}
			return nil, false, nil

		case algebra.OpSubmit:
			return nil, false, fmt.Errorf("wrapper: nested submit in a wrapper subplan")
		}
		return nil, false, nil
	}})
}

// runSubplan executes a subplan on a fresh meter and wraps the result,
// charging delivery.
func runSubplan(src planSource, plan *algebra.Node) (*Result, error) {
	var m netsim.Meter
	rows, err := execPlan(src, &m, plan)
	if err != nil {
		return nil, err
	}
	src.deliver(&m, len(rows))
	return &Result{Rows: rows, Schema: plan.OutSchema, Bytes: types.RowBytes(rows), VirtualMS: m.MS()}, nil
}

// checkCapabilities walks a subplan and verifies the wrapper advertises
// every operator in it.
func checkCapabilities(w Wrapper, plan *algebra.Node) error {
	caps := w.Capabilities()
	var bad algebra.OpKind
	ok := true
	plan.Walk(func(n *algebra.Node) bool {
		if !caps.Supports(n.Kind) {
			bad = n.Kind
			ok = false
		}
		return ok
	})
	if !ok {
		return fmt.Errorf("wrapper: %s does not support operator %s", w.Name(), bad)
	}
	return nil
}
