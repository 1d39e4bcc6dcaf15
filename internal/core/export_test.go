package core

import (
	"fmt"
	"math"
	"reflect"

	"disco/internal/algebra"
)

// SearchState gives the external tests an estimator's scratch arena: the
// search's record of priced nodes and its remembered statistics. It stays
// readable after the search until a later search on any estimator takes
// the arena from the pool.
type SearchState = scratch

// LiveSearch returns the estimator's arena while a search runs, or nil
// outside one.
func LiveSearch(e *Estimator) *SearchState {
	if e.scr == nil || e.scr.search == nil {
		return nil
	}
	return e.scr
}

// Applied reports how many nodes the search's table-backed walks priced.
func (s *scratch) Applied() int { return s.tab.applied }

// Joinsels reports how many times the search computed joinsel().
func (s *scratch) Joinsels() int { return s.tab.joinsels }

// PricedJoins counts the join entries of the search's record.
func (s *scratch) PricedJoins() int {
	n := 0
	for k := range s.tab.priced {
		if k.node.Kind == algebra.OpJoin {
			n++
		}
	}
	return n
}

// DistinctNodeSites counts the distinct (node, site) pairs in the table.
func (s *scratch) DistinctNodeSites() int {
	type nodeSite struct {
		node *algebra.Node
		site string
	}
	seen := make(map[nodeSite]bool, len(s.tab.priced))
	for k := range s.tab.priced {
		seen[nodeSite{k.node, k.site}] = true
	}
	return len(seen)
}

// RootEntries returns the recorded costs of the nodes whose entry has the
// key an EstimateRoot of the node itself, on e, would use: every
// candidate the search priced, and any other node priced at the site and
// need set it would have as a root.
func (s *scratch) RootEntries(e *Estimator) map[*algebra.Node]RootCost {
	out := make(map[*algebra.Node]RootCost)
	need := e.rootNeed()
	for k, ent := range s.tab.priced {
		if k.need == need && e.buildCtx(&scratch{}, k.node, "").wrapper == k.site {
			out[k.node] = ent.RootCost
		}
	}
	return out
}

// AttrStatsMismatch compares the arena's remembered attribute statistics
// with attrStatsUnder's walk: every pair the search remembered, then every
// node the search priced with each of attrs. It returns the first
// difference ("" when there is none) and how many pairs the search had
// remembered.
func (s *scratch) AttrStatsMismatch(view CatalogView, attrs []string) (string, int) {
	remembered := len(s.attrMemo)
	check := func(n *algebra.Node, attr string) string {
		want, ok := attrStatsUnder(view, n, attr)
		got := s.statsUnder(view, n, attr)
		if ok != (got != nil) || ok && !reflect.DeepEqual(*got, want) {
			return fmt.Sprintf("%s under %s: remembered %v, walk %v (found %v)", attr, n.Signature(), got, want, ok)
		}
		return ""
	}
	keys := make([]attrKey, 0, remembered)
	for k := range s.attrMemo {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if msg := check(k.node, k.attr); msg != "" {
			return msg, remembered
		}
	}
	for k := range s.tab.priced {
		for _, a := range attrs {
			if msg := check(k.node, a); msg != "" {
				return msg, remembered
			}
		}
	}
	return "", remembered
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
