package core

import (
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/costvm"
	"disco/internal/stats"
	"disco/internal/types"
)

// evalEnv implements costvm.Env for one (node, rule, match) combination.
// It realizes the paper's Figure 7 naming scheme:
//
//	C.CountObject        extent statistic or child result variable
//	C.A.Indexed          attribute statistic (A may be a bound variable)
//	CountObject          this node's already-computed result variable
//	PageSize             rule/wrapper/mediator global
//	Net.Latency          communication parameters of the executing wrapper
//	Arity, C.Arity       schema widths (extension)
type evalEnv struct {
	est   *Estimator
	sc    *scratch
	ctx   *nodeCtx
	rule  *Rule
	match *matchResult
	// locals are the owning rule's evaluated lets, in declaration order:
	// a prefix of rule.Lets while the lets themselves are evaluated.
	locals []letVal
	// fold is the owning rule's folded bodies (nil outside an estimation
	// and for a rule that reads nothing); prog resolves the running
	// program's paths and function names.
	fold *ruleFold
	prog *program
}

// pathRef is one parameter path of a rule body, classified once against
// its rule (Rule.Finalize) so that evaluation compares no names. Each
// field answers whether one step of the resolution order applies to the
// path; resolve tries the steps in that order, first segment first: rule
// lets, self result variables, self arity, head bindings, wrapper
// globals, mediator globals, Net, collection names of the executing
// wrapper. A path that reaches a global or a named collection of the
// rule's own wrapper is normally folded away (fold.go); resolve reads
// such a path by name only when it could not be folded.
type pathRef struct {
	let  int // the first rule let a one-segment path names; -1 if none
	self int // the self result variable a one-segment path names; -1 if none
	slot int // the head slot the first segment names; -1 if none
	// arity and global apply to one-segment paths, net to Net.X, coll to
	// paths of two or more segments, whose first may name a collection.
	arity, global, net, coll bool
	tail                     tailRef
	// fast names the resolution step that answers the path whenever it
	// can answer at all, so LookupIndex tries it first.
	fast fastRef
}

// fastRef is a path whose resolution comes down to one step: a self
// result variable no let shadows, or a result variable of the child a
// head variable binds (C.X).
type fastRef uint8

// The fast paths; the zero fastRef has none.
const (
	fastSelf fastRef = iota + 1
	fastChildVar
)

// tailRef classifies what follows the first segment: X of C.X or Net.X,
// A.S of C.A.S.
type tailRef struct {
	vi       int  // C.X: the child result variable X names; -1 if none
	stat     stat // the statistic the last segment names
	attrSlot int  // C.A.S: the head slot that may rebind A; -1 if none
}

// stat is a statistic or parameter the last segment of a path can name.
type stat uint8

const (
	statNone stat = iota
	statArity
	statCountObject // extent statistics (C.X)
	statTotalSize
	statObjectSize
	statCountPage
	statIndexed // attribute statistics (C.A.S)
	statClustered
	statCountDistinct
	statMin
	statMax
	statLatency // Net parameters
	statPerByte
)

var statNames = [...]string{
	statArity: "Arity", statCountObject: "CountObject", statTotalSize: "TotalSize",
	statObjectSize: "ObjectSize", statCountPage: "CountPage", statIndexed: "Indexed",
	statClustered: "Clustered", statCountDistinct: "CountDistinct", statMin: "Min", statMax: "Max",
	statLatency: "Latency", statPerByte: "PerByte",
}

// statOf names the statistic a segment spells, ignoring case.
func statOf(name string) stat {
	for i, n := range statNames {
		if n != "" && strings.EqualFold(n, name) {
			return stat(i)
		}
	}
	return statNone
}

// classifyPaths classifies every path of a program against the rule.
func (r *Rule) classifyPaths(p *costvm.Program) []pathRef {
	if len(p.Paths) == 0 {
		return nil
	}
	refs := make([]pathRef, len(p.Paths))
	for i, path := range p.Paths {
		refs[i] = r.classifyPath(path)
	}
	return refs
}

// classifyPath decides, from the rule alone, which resolution steps can
// apply to a path (see pathRef).
func (r *Rule) classifyPath(path []string) pathRef {
	ref := pathRef{let: -1, self: -1, slot: -1, tail: tailRef{vi: -1, attrSlot: -1}}
	if len(path) == 0 {
		return ref
	}
	head := path[0]
	ref.slot = r.slotOf(head)
	ref.coll = len(path) >= 2
	switch len(path) {
	case 1:
		for j := range r.Lets {
			if r.Lets[j].Var == head {
				ref.let = j
				break
			}
		}
		ref.self = varIndex(head)
		ref.arity = statOf(head) == statArity
		ref.global = true
		if ref.let < 0 && ref.self >= 0 {
			ref.fast = fastSelf
		}
	case 2:
		ref.net = strings.EqualFold(head, "Net")
		ref.tail.vi = varIndex(path[1])
		ref.tail.stat = statOf(path[1])
		if ref.slot >= 0 && ref.tail.vi >= 0 {
			ref.fast = fastChildVar
		}
	case 3:
		ref.tail.attrSlot = r.slotOf(path[1])
		ref.tail.stat = statOf(path[2])
	}
	return ref
}

// LookupIndex resolves path i of the running program through its
// classification (costvm.IndexedEnv).
func (e *evalEnv) LookupIndex(i int, path []string) (types.Constant, bool) {
	if e.prog == nil || i >= len(e.prog.refs) {
		return e.Lookup(path)
	}
	ref := &e.prog.refs[i]
	switch ref.fast {
	case fastSelf:
		if e.ctx.varsSet.Has(ref.self) {
			return types.Float(e.ctx.vars[ref.self]), true
		}
		return types.Null, false
	case fastChildVar:
		if b := e.match.slot(ref.slot); b.kind == bindColl && b.ctx != nil && b.ctx.varsSet.Has(ref.tail.vi) {
			return types.Float(b.ctx.vars[ref.tail.vi]), true
		}
	}
	return e.resolve(path, ref)
}

// Lookup resolves a path no classification covers by classifying it
// first.
func (e *evalEnv) Lookup(path []string) (types.Constant, bool) {
	ref := e.rule.classifyPath(path)
	return e.resolve(path, &ref)
}

// resolve runs the resolution order of pathRef over a classified path.
func (e *evalEnv) resolve(path []string, ref *pathRef) (types.Constant, bool) {
	// Rule-local lets (per node, per rule), once evaluated.
	if ref.let >= 0 && ref.let < len(e.locals) {
		return e.locals[ref.let].val, true
	}
	// Self result variables, computed earlier in canonical order.
	if ref.self >= 0 {
		if e.ctx.varsSet.Has(ref.self) {
			return types.Float(e.ctx.vars[ref.self]), true
		}
		return types.Null, false
	}
	// Self arity.
	if ref.arity {
		if w, ok := algebra.Width(e.ctx.node); ok {
			return types.Int(int64(w)), true
		}
		return types.Null, false
	}
	// Head bindings.
	if b := e.match.slot(ref.slot); b.kind != bindNone {
		return e.resolveBinding(b, path[1:], &ref.tail)
	}
	// Wrapper globals, then mediator globals.
	if ref.global {
		if v, ok := e.rule.Globals[path[0]]; ok {
			return v, true
		}
		if v, ok := e.est.globals[path[0]]; ok {
			return v, true
		}
	}
	// Net parameters of the executing site.
	if ref.net {
		switch ref.tail.stat {
		case statLatency:
			return types.Float(e.est.Net.LatencyMS(e.ctx.wrapper)), true
		case statPerByte:
			return types.Float(e.est.Net.PerByteMS(e.ctx.wrapper)), true
		}
		return types.Null, false
	}
	// A collection name of the rule's wrapper (Figure 8's scan rule
	// references Employee.TotalSize directly).
	wrapper := e.rule.Wrapper
	if wrapper == "" {
		wrapper = e.ctx.wrapper
	}
	if ref.coll && wrapper != "" && e.est.View.HasCollection(wrapper, path[0]) {
		return e.resolveBinding(&binding{kind: bindColl, coll: path[0], wrapper: wrapper}, path[1:], &ref.tail)
	}
	return types.Null, false
}

// resolveBinding resolves the tail of a path against a head binding.
func (e *evalEnv) resolveBinding(b *binding, tail []string, t *tailRef) (types.Constant, bool) {
	switch b.kind {
	case bindAttr:
		if len(tail) == 0 {
			return types.Str(b.str), true
		}
		return types.Null, false
	case bindValue:
		if len(tail) == 0 {
			return b.val, true
		}
		return types.Null, false
	case bindPred:
		return types.Null, false // predicates are only usable via predsel()
	case bindColl:
		return e.resolveCollPath(b, tail, t)
	default:
		return types.Null, false
	}
}

// resolveCollPath resolves C.<var-or-stat> and C.<attr>.<stat>.
func (e *evalEnv) resolveCollPath(b *binding, tail []string, t *tailRef) (types.Constant, bool) {
	switch len(tail) {
	case 1:
		// Child result variable (TotalTime of the input, etc.).
		if b.ctx != nil && t.vi >= 0 && b.ctx.varsSet.Has(t.vi) {
			return types.Float(b.ctx.vars[t.vi]), true
		}
		// Otherwise an unestimated child (leaf collection target) may
		// still answer from base statistics.
		if t.stat == statArity && b.ctx != nil {
			if w, ok := algebra.Width(b.ctx.node); ok {
				return types.Int(int64(w)), true
			}
		}
		ext, ok := e.extentOf(b)
		if !ok {
			return types.Null, false
		}
		switch t.stat {
		case statCountObject:
			return types.Int(ext.CountObject), true
		case statTotalSize:
			return types.Int(ext.TotalSize), true
		case statObjectSize:
			return types.Int(ext.ObjectSize), true
		case statCountPage:
			return types.Int(ext.CountPage(e.pageSize())), true
		default:
			return types.Null, false
		}
	case 2:
		attr := tail[0]
		// The attribute segment may itself be a bound head variable (the
		// C.A.Indexed indirection).
		if ab := e.match.slot(t.attrSlot); ab.kind == bindAttr {
			attr = ab.str
		}
		var ast *stats.AttributeStats
		switch {
		case b.coll != "" && b.wrapper != "":
			st, ok := e.est.View.Attribute(b.wrapper, b.coll, attr)
			if !ok {
				return types.Null, false
			}
			ast = &st
		case b.ctx != nil:
			ast = e.sc.statsUnder(e.est.View, b.ctx.id, attr)
		}
		if ast == nil {
			return types.Null, false
		}
		switch t.stat {
		case statIndexed:
			return types.Bool(ast.Indexed), true
		case statClustered:
			return types.Bool(ast.Clustered), true
		case statCountDistinct:
			return types.Int(ast.CountDistinct), true
		case statMin:
			if ast.Min.IsNull() {
				return types.Null, false
			}
			return ast.Min, true
		case statMax:
			if ast.Max.IsNull() {
				return types.Null, false
			}
			return ast.Max, true
		default:
			return types.Null, false
		}
	default:
		return types.Null, false
	}
}

func (e *evalEnv) pageSize() int64 {
	if e.fold != nil {
		return e.fold.pageSize
	}
	if v, ok := e.rule.Globals["PageSize"]; ok {
		return v.AsInt()
	}
	if v, ok := e.est.globals["PageSize"]; ok {
		return v.AsInt()
	}
	return 4096
}

// extentOf returns extent statistics for a collection binding: the base
// collection's exported stats, or the default fallback.
func (e *evalEnv) extentOf(b *binding) (stats.ExtentStats, bool) {
	if b.coll != "" && b.wrapper != "" {
		if ext, ok := e.est.View.Extent(b.wrapper, b.coll); ok {
			return ext, true
		}
		return DefaultExtent, true
	}
	// Intermediate result: answer from the child's computed variables.
	if b.ctx != nil {
		ext := stats.ExtentStats{}
		set := b.ctx.varsSet
		ok1, ok2, ok3 := set.Has(idxCountObject), set.Has(idxTotalSize), set.Has(idxObjectSize)
		co, ts, os := b.ctx.vars[idxCountObject], b.ctx.vars[idxTotalSize], b.ctx.vars[idxObjectSize]
		if !ok1 && !ok2 {
			return ext, false
		}
		if ok1 {
			ext.CountObject = int64(co)
		}
		if ok2 {
			ext.TotalSize = int64(ts)
		}
		if ok3 {
			ext.ObjectSize = int64(os)
		}
		if !ok3 && ok1 && ok2 && co > 0 {
			ext.ObjectSize = int64(ts / co)
		}
		return ext, true
	}
	return stats.ExtentStats{}, false
}

// statsUnder returns the statistics of the first scan under the node with
// the given id, in walk order, that exports the attribute; nil when none
// does. Answers are remembered per (node, attribute) for the search, or
// for the one estimation outside a search, under the node's id and the
// attribute's (attrID): a node's answer is its first child's that has
// one, so pricing a new join node reads its inputs' answers. The
// statistics live once in the scratch's attrVals slab.
func (sc *scratch) statsUnder(view CatalogView, id int32, attr string) *stats.AttributeStats {
	if i := sc.statsIndex(view, id, sc.attrID(attr)); i >= 0 {
		return &sc.attrVals[i]
	}
	return nil
}

// attrID returns the attribute name's id, numbering it on first sight.
func (sc *scratch) attrID(attr string) int32 {
	if a, ok := sc.attrIDs[attr]; ok {
		return a
	}
	a := int32(len(sc.attrNames))
	sc.attrIDs[attr] = a
	sc.attrNames = append(sc.attrNames, attr)
	return a
}

func (sc *scratch) statsIndex(view CatalogView, id, aid int32) int32 {
	if as := sc.infos[id].attrs; int(aid) < len(as) && as[aid] != attrUnknown {
		return as[aid]
	}
	n := sc.infos[id].node
	i := int32(attrAbsent)
	if n.Kind == algebra.OpScan {
		if st, ok := view.Attribute(n.Wrapper, n.Collection, sc.attrNames[aid]); ok {
			sc.attrVals = append(sc.attrVals, st)
			i = int32(len(sc.attrVals) - 1)
		}
	} else {
		for k := range n.Children {
			if i = sc.statsIndex(view, sc.infos[id].kids[k], aid); i >= 0 {
				break
			}
		}
	}
	info := &sc.infos[id]
	for int(aid) >= len(info.attrs) {
		info.attrs = append(info.attrs, attrUnknown)
	}
	info.attrs[aid] = i
	return i
}

// callSelectivity implements the contextual selectivity(A, V) function:
// the fraction of the node's input satisfying the matched comparison. The
// comparison operator comes from the matched predicate (the head pattern
// constrains it).
func (e *evalEnv) callSelectivity(args []types.Constant) (types.Constant, error) {
	if len(args) != 2 {
		return types.Null, fmt.Errorf("selectivity expects 2 args (attribute, value)")
	}
	attr := args[0].AsString()
	value := args[1]
	op := stats.CmpEQ
	if e.match.hasSel {
		op = e.match.selOp
	}
	return types.Float(e.inputAttrStatsOrDefault(attr).Selectivity(op, value)), nil
}

// inputAttrStats finds statistics for an attribute of the node's
// input(s); nil when none exports it.
func (e *evalEnv) inputAttrStats(attr string) *stats.AttributeStats {
	sc := e.sc
	aid := sc.attrID(attr)
	for _, child := range e.ctx.children {
		if i := sc.statsIndex(e.est.View, child.id, aid); i >= 0 {
			return &sc.attrVals[i]
		}
	}
	if e.ctx.node.Kind == algebra.OpScan {
		if i := sc.statsIndex(e.est.View, e.ctx.id, aid); i >= 0 {
			return &sc.attrVals[i]
		}
	}
	return nil
}

// inputAttrStatsOrDefault is inputAttrStats falling back to
// DefaultAttribute.
func (e *evalEnv) inputAttrStatsOrDefault(attr string) *stats.AttributeStats {
	if st := e.inputAttrStats(attr); st != nil {
		return st
	}
	return &DefaultAttribute
}

// predSelectivity estimates the selectivity of a whole predicate as the
// product of its conjuncts' selectivities (independence assumption).
func (e *evalEnv) predSelectivity(p *algebra.Predicate) float64 {
	if p == nil || len(p.Conjuncts) == 0 {
		return 1
	}
	sel := 1.0
	for i := range p.Conjuncts {
		sel *= e.conjunctSelectivity(&p.Conjuncts[i])
	}
	return sel
}

// conjunctSelectivity estimates one comparison over the node's inputs.
func (e *evalEnv) conjunctSelectivity(c *algebra.Comparison) float64 {
	if c.IsJoin() {
		return stats.JoinSelectivity(*e.inputAttrStatsOrDefault(c.Left.Attr), *e.inputAttrStatsOrDefault(c.RightAttr.Attr))
	}
	return e.inputAttrStatsOrDefault(c.Left.Attr).Selectivity(c.Op, c.RightConst)
}

// joinSelectivity estimates the node's join predicate selectivity relative
// to the cross product.
func (e *evalEnv) joinSelectivity() float64 {
	p := e.ctx.node.Pred
	if p == nil {
		return 1 // cross product
	}
	if len(p.Conjuncts) == 0 {
		return 0.01
	}
	return e.predSelectivity(p)
}

// groupEstimate estimates the number of groups an aggregate produces.
func (e *evalEnv) groupEstimate() float64 {
	n := e.ctx.node
	if n.Kind != algebra.OpAggregate || len(n.GroupBy) == 0 {
		return 1
	}
	childCount := 1e9
	if len(e.ctx.children) > 0 {
		if c := e.ctx.children[0]; c.varsSet.Has(idxCountObject) {
			childCount = c.vars[idxCountObject]
		}
	}
	groups := 1.0
	for _, g := range n.GroupBy {
		if st := e.inputAttrStats(g.Attr); st != nil && st.CountDistinct > 0 {
			groups *= float64(st.CountDistinct)
		} else {
			groups *= 10 // default distinct factor
		}
	}
	if groups > childCount {
		groups = childCount
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}
