package core

import "disco/internal/algebra"

// tableKey identifies one priced node of a search: the node, the site it
// executes at, and the variables asked of it. The variables vary only
// under Options.RequiredVarsOnly; otherwise every node owes all of them.
type tableKey struct {
	node *algebra.Node
	site string
	need VarSet
}

// searchTable is one plan search's record of priced nodes.
type searchTable struct {
	priced map[tableKey]RootCost
	// applied counts the formula applications of table-backed walks; the
	// tests check that it equals the number of distinct priced nodes.
	applied int
}

// BeginSearch starts one plan search on the estimator. Until EndSearch,
// EstimateRoot records the result variables of every node it prices and
// answers a node it has already priced from that record: it matches no
// rule and visits nothing below the node. A node's two-phase estimate
// depends only on its subtree (§4.2), so a candidate built over priced
// inputs costs its new nodes only. A rule published during the search
// reaches only the nodes priced after it. Estimate, and EstimateRoot
// outside a search, always walk the whole plan.
func (e *Estimator) BeginSearch() {
	e.scratch().search = &searchTable{priced: make(map[tableKey]RootCost)}
}

// EndSearch drops the search's record, so the next search sees every
// registry and statistics change made since.
func (e *Estimator) EndSearch() {
	if e.scr != nil {
		e.scr.search = nil
	}
}
