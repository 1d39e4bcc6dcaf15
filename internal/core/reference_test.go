package core

import (
	"strings"

	"disco/internal/algebra"
	"disco/internal/stats"
	"disco/internal/types"
)

// Reference implementations the estimator's faster paths are checked
// against: attribute statistics found by walking the subtree on every
// call, and parameter paths resolved by comparing names on every
// evaluation.

// attrStatsUnder searches the scans under a node, in walk order, for one
// exporting statistics for the attribute.
func attrStatsUnder(view CatalogView, n *algebra.Node, attr string) (stats.AttributeStats, bool) {
	if n.Kind == algebra.OpScan {
		return view.Attribute(n.Wrapper, n.Collection, attr)
	}
	for _, c := range n.Children {
		if st, ok := attrStatsUnder(view, c, attr); ok {
			return st, true
		}
	}
	return stats.AttributeStats{}, false
}

// nameLookup resolves a path by its names. Resolution order for the first
// segment: rule lets, self result variables, self arity, head bindings,
// wrapper globals, mediator globals, Net, collection names of the
// executing wrapper.
func nameLookup(e *evalEnv, path []string) (types.Constant, bool) {
	head := path[0]
	if len(path) == 1 {
		for i := range e.locals {
			if e.locals[i].name == head {
				return e.locals[i].val, true
			}
		}
	}
	if len(path) == 1 {
		if vi := varIndex(head); vi >= 0 {
			if e.ctx.varsSet.Has(vi) {
				return types.Float(e.ctx.vars[vi]), true
			}
			return types.Null, false
		}
	}
	if len(path) == 1 && strings.EqualFold(head, "Arity") {
		if s := e.ctx.node.OutSchema; s != nil {
			return types.Int(int64(s.Len())), true
		}
		return types.Null, false
	}
	if b, ok := nameBinding(e, head); ok {
		return nameResolveBinding(e, b, path[1:])
	}
	if len(path) == 1 {
		if v, ok := e.rule.Globals[head]; ok {
			return v, true
		}
		if v, ok := e.est.globals[head]; ok {
			return v, true
		}
	}
	if strings.EqualFold(head, "Net") && len(path) == 2 {
		switch {
		case strings.EqualFold(path[1], "latency"):
			return types.Float(e.est.Net.LatencyMS(e.ctx.wrapper)), true
		case strings.EqualFold(path[1], "perbyte"):
			return types.Float(e.est.Net.PerByteMS(e.ctx.wrapper)), true
		}
		return types.Null, false
	}
	wrapper := e.rule.Wrapper
	if wrapper == "" {
		wrapper = e.ctx.wrapper
	}
	if len(path) >= 2 && wrapper != "" && e.est.View.HasCollection(wrapper, head) {
		return nameResolveBinding(e, binding{kind: bindColl, coll: head, wrapper: wrapper}, path[1:])
	}
	return types.Null, false
}

// nameBinding finds the binding of the first head variable spelled like
// name, ignoring case.
func nameBinding(e *evalEnv, name string) (binding, bool) {
	for _, t := range e.rule.Terms {
		for _, nb := range []struct {
			name string
			slot int
		}{{t.Name, t.slot}, {t.AttrVar, t.attrSlot}, {t.ValueVar, t.valueSlot}} {
			if nb.name == "" || nb.slot < 0 || !strings.EqualFold(nb.name, name) {
				continue
			}
			if b := e.match.slot(nb.slot); b.kind != bindNone {
				return *b, true
			}
		}
	}
	return binding{}, false
}

func nameResolveBinding(e *evalEnv, b binding, tail []string) (types.Constant, bool) {
	switch b.kind {
	case bindAttr:
		if len(tail) == 0 {
			return types.Str(b.str), true
		}
	case bindValue:
		if len(tail) == 0 {
			return b.val, true
		}
	case bindColl:
		return nameResolveCollPath(e, b, tail)
	}
	return types.Null, false
}

func nameResolveCollPath(e *evalEnv, b binding, tail []string) (types.Constant, bool) {
	switch len(tail) {
	case 1:
		name := tail[0]
		if b.ctx != nil {
			if vi := varIndex(name); vi >= 0 && b.ctx.varsSet.Has(vi) {
				return types.Float(b.ctx.vars[vi]), true
			}
		}
		if strings.EqualFold(name, "Arity") {
			if b.ctx != nil && b.ctx.node.OutSchema != nil {
				return types.Int(int64(b.ctx.node.OutSchema.Len())), true
			}
		}
		ext, ok := e.extentOf(&b)
		if !ok {
			return types.Null, false
		}
		switch {
		case strings.EqualFold(name, "countobject"):
			return types.Int(ext.CountObject), true
		case strings.EqualFold(name, "totalsize"):
			return types.Int(ext.TotalSize), true
		case strings.EqualFold(name, "objectsize"):
			return types.Int(ext.ObjectSize), true
		case strings.EqualFold(name, "countpage"):
			return types.Int(ext.CountPage(e.pageSize())), true
		}
		return types.Null, false
	case 2:
		attr := tail[0]
		if ab, ok := nameBinding(e, attr); ok && ab.kind == bindAttr {
			attr = ab.str
		}
		var ast stats.AttributeStats
		var ok bool
		switch {
		case b.coll != "" && b.wrapper != "":
			ast, ok = e.est.View.Attribute(b.wrapper, b.coll, attr)
		case b.ctx != nil:
			ast, ok = attrStatsUnder(e.est.View, b.ctx.node, attr)
		}
		if !ok {
			return types.Null, false
		}
		switch {
		case strings.EqualFold(tail[1], "indexed"):
			return types.Bool(ast.Indexed), true
		case strings.EqualFold(tail[1], "clustered"):
			return types.Bool(ast.Clustered), true
		case strings.EqualFold(tail[1], "countdistinct"):
			return types.Int(ast.CountDistinct), true
		case strings.EqualFold(tail[1], "min"):
			if !ast.Min.IsNull() {
				return ast.Min, true
			}
		case strings.EqualFold(tail[1], "max"):
			if !ast.Max.IsNull() {
				return ast.Max, true
			}
		}
		return types.Null, false
	}
	return types.Null, false
}
