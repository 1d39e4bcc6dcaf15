package core

// tableEntry is one priced node: its variables and what its estimate
// asked of each child, so a walk that must visit the children can. A
// node's entries are kept under its id (nodeInfo.priced), keyed by the
// site it executes at and the variables asked of it; the variables vary
// only under Options.RequiredVarsOnly, otherwise every node owes all of
// them.
type tableEntry struct {
	RootCost
	childNeeds [2]VarSet
}

// priced returns the recorded estimate of a node at a site for a need
// set.
func (s *scratch) priced(id int32, site string, need VarSet) (*tableEntry, bool) {
	ps := s.infos[id].priced
	for i := range ps {
		if ps[i].need == need && ps[i].site == site {
			return &ps[i].tableEntry, true
		}
	}
	return nil, false
}

// searchTable is one plan search's record of priced nodes.
type searchTable struct {
	// required is the Options.RequiredVarsOnly the search began under: a
	// node's estimate also depends on it (it decides which child
	// variables exist), so walks under the other setting do not read the
	// record.
	required bool
	// applied counts the formula applications of table-backed walks; the
	// tests check that it equals the number of distinct priced nodes.
	applied int
	// joinsels counts joinsel() computations; the tests check one per
	// priced join.
	joinsels int
}

// BeginSearch starts one plan search on the estimator. Until EndSearch,
// EstimateRoot and Estimate record the result variables of every node
// they price and answer a node already priced from that record: it
// matches no rule, and EstimateRoot visits nothing below it. A node's
// two-phase estimate depends only on its subtree (§4.2), so a candidate
// built over priced inputs costs its new nodes only. Attribute statistics
// are remembered per (node, attribute) for the search. Nodes are known by
// a dense per-search id (scratch.idOf), under which the record and the
// statistics live. A rule published
// during the search reaches only the nodes priced after it. BeginSearch
// clears the arena's tables, keeping their memory.
func (e *Estimator) BeginSearch() {
	sc := e.scratch()
	sc.tab.required = e.Options.RequiredVarsOnly
	sc.tab.applied, sc.tab.joinsels = 0, 0
	sc.search = &sc.tab
	sc.forgetNodes()
	sc.foldVersion = e.foldVersion()
}

// EndSearch ends the search and returns the estimator's scratch arena to
// the pool, so the next search on any estimator starts from grown pools
// and maps, and sees every registry and statistics change made since.
func (e *Estimator) EndSearch() {
	sc := e.scr
	if sc == nil {
		return
	}
	sc.search, sc.table = nil, nil
	sc.env = evalEnv{}
	e.scr = nil
	scratchPool.Put(sc)
}

// liveTable returns the running search's record when this estimator's
// walks may read it: inside a search begun under the current
// RequiredVarsOnly setting.
func (e *Estimator) liveTable() *searchTable {
	if sc := e.scratch(); sc.search != nil && sc.search.required == e.Options.RequiredVarsOnly {
		return sc.search
	}
	return nil
}
