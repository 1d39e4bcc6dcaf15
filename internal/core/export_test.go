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
	for i := range s.infos {
		if s.infos[i].node.Kind == algebra.OpJoin {
			n += len(s.infos[i].priced)
		}
	}
	return n
}

// DistinctNodeSites counts the distinct (node, site) pairs in the table.
func (s *scratch) DistinctNodeSites() int {
	n := 0
	for i := range s.infos {
		ps := s.infos[i].priced
		for j := range ps {
			first := true
			for k := 0; k < j; k++ {
				if ps[k].site == ps[j].site {
					first = false
				}
			}
			if first {
				n++
			}
		}
	}
	return n
}

// RootEntries returns the recorded costs of the nodes whose entry has the
// key an EstimateRoot of the node itself, on e, would use: every
// candidate the search priced, and any other node priced at the site and
// need set it would have as a root.
func (s *scratch) RootEntries(e *Estimator) map[*algebra.Node]RootCost {
	out := make(map[*algebra.Node]RootCost)
	need := e.rootNeed()
	for i := range s.infos {
		for _, p := range s.infos[i].priced {
			if p.need == need && p.site == s.infos[i].site {
				out[s.infos[i].node] = p.RootCost
			}
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
	type pair struct {
		node *algebra.Node
		attr string
	}
	var remembered []pair
	var priced []*algebra.Node
	for i := range s.infos {
		for aid, a := range s.infos[i].attrs {
			if a != attrUnknown {
				remembered = append(remembered, pair{s.infos[i].node, s.attrNames[aid]})
			}
		}
		if len(s.infos[i].priced) > 0 {
			priced = append(priced, s.infos[i].node)
		}
	}
	check := func(n *algebra.Node, attr string) string {
		want, ok := attrStatsUnder(view, n, attr)
		got := s.statsUnder(view, s.idOf(n), attr)
		if ok != (got != nil) || ok && !reflect.DeepEqual(*got, want) {
			return fmt.Sprintf("%s under %s: remembered %v, walk %v (found %v)", attr, n.Signature(), got, want, ok)
		}
		return ""
	}
	for _, k := range remembered {
		if msg := check(k.node, k.attr); msg != "" {
			return msg, len(remembered)
		}
	}
	for _, n := range priced {
		for _, a := range attrs {
			if msg := check(n, a); msg != "" {
				return msg, len(remembered)
			}
		}
	}
	return "", len(remembered)
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
