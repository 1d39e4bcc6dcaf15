package core

import (
	"math"

	"disco/internal/algebra"
)

// SearchTable gives the external tests a search's record of priced nodes.
type SearchTable = searchTable

// LiveSearch returns the estimator's running search, or nil outside one.
func LiveSearch(e *Estimator) *SearchTable {
	if e.scr == nil {
		return nil
	}
	return e.scr.search
}

// Applied reports how many nodes the search's table-backed walks priced.
func (t *searchTable) Applied() int { return t.applied }

// DistinctNodeSites counts the distinct (node, site) pairs in the table.
func (t *searchTable) DistinctNodeSites() int {
	type nodeSite struct {
		node *algebra.Node
		site string
	}
	seen := make(map[nodeSite]bool, len(t.priced))
	for k := range t.priced {
		seen[nodeSite{k.node, k.site}] = true
	}
	return len(seen)
}

// RootEntries returns the recorded costs of the nodes whose entry has the
// key an EstimateRoot of the node itself, on e, would use: every
// candidate the search priced, and any other node priced at the site and
// need set it would have as a root.
func (t *searchTable) RootEntries(e *Estimator) map[*algebra.Node]RootCost {
	out := make(map[*algebra.Node]RootCost)
	need := e.rootNeed()
	for k, rc := range t.priced {
		if k.need == need && e.buildCtx(&scratch{}, k.node, "").wrapper == k.site {
			out[k.node] = rc
		}
	}
	return out
}

// SameBits reports whether two root costs computed the same variables
// with the same bits.
func SameBits(a, b RootCost) bool {
	if a.set != b.set {
		return false
	}
	for i := range a.vars {
		if math.Float64bits(a.vars[i]) != math.Float64bits(b.vars[i]) {
			return false
		}
	}
	return true
}
