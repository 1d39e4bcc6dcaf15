package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"disco/internal/costvm"
	"disco/internal/types"
)

// Folding is the estimator's half of the paper's "semi-compiled" rules
// (§2.4, §7): once per model state, each rule body is partially evaluated
// against everything about it that does not depend on the plan node. A
// subterm that reads only literals, the owning wrapper's globals, the
// mediator's globals (MedHashPerObj, PageSize, ...) or one named
// collection's catalog statistics (Employee.TotalSize in a wrapper rule)
// becomes a constant, and every function name becomes a direct reference:
// a registry function, or one of the contextual functions selectivity,
// predsel, joinsel and groups. Net.* terms depend on the executing site,
// so they stay loads.
//
// A fold remembers the catalog statistics it read; a wrapper's own
// globals never change for its rules, and the mediator's are fixed when
// the estimator is built. BeginSearch, or an estimation outside a search,
// re-reads them (a few dozen map reads) and retires every fold when one
// changed: a re-registration, a feedback correction of a statistic, or any
// other write. Rules fold again on first use after that.

// foldSource is the fold state an estimator and its clones share.
type foldSource struct {
	mu      sync.Mutex
	version uint64
	deps    []foldDep
}

// foldDep is one input a fold read: a catalog path of a rule, with the
// value it had.
type foldDep struct {
	rule *Rule
	path []string
	ref  pathRef
	val  types.Constant
	ok   bool
}

// ruleFold is a rule's bodies folded for one version of a source.
type ruleFold struct {
	src      *foldSource
	version  uint64
	lets     []program
	formulas []program
	// pageSize is the PageSize the rule's C.CountPage paths divide by.
	pageSize int64
}

// program is one folded body with its paths and names resolved.
type program struct {
	prog  *costvm.Program
	refs  []pathRef
	calls []callRef
}

// body returns a rule's let (let) or formula i as folded, with its paths
// and names resolved; a rule that reads nothing (rf nil) runs its bodies
// as written, with nothing to resolve.
func (rf *ruleFold) body(r *Rule, let bool, i int) (*costvm.Program, *program) {
	switch {
	case rf == nil && let:
		return r.Lets[i].Prog, nil
	case rf == nil:
		return r.Formulas[i].Prog, nil
	case let:
		return rf.lets[i].prog, &rf.lets[i]
	}
	return rf.formulas[i].prog, &rf.formulas[i]
}

// ctxFunc names a contextual cost-model function: one that reads the plan
// node being estimated.
type ctxFunc uint8

// The contextual functions; the zero ctxFunc names none.
const (
	ctxSelectivity ctxFunc = iota + 1
	ctxPredsel
	ctxJoinsel
	ctxGroups
)

var ctxFuncNames = [...]string{ctxSelectivity: "selectivity", ctxPredsel: "predsel", ctxJoinsel: "joinsel", ctxGroups: "groups"}

// callRef is a function name resolved against a rule: its registry's
// function (stdlib plus the owning wrapper's defs), which shadows the
// contextual ones, or a contextual function; neither for an unknown name.
type callRef struct {
	fn  costvm.Builtin
	ctx ctxFunc
}

// resolveCall resolves a function name against a rule.
func resolveCall(r *Rule, name string) callRef {
	if r.Funcs != nil {
		if fn, ok := r.Funcs.Lookup(name); ok {
			return callRef{fn: fn}
		}
	}
	for i, n := range ctxFuncNames {
		if n != "" && strings.EqualFold(n, name) {
			return callRef{ctx: ctxFunc(i)}
		}
	}
	return callRef{}
}

// readsNothing reports whether a rule's bodies read no parameter and call
// no function, such as a history rule's observed constants: folding
// leaves them as they are, for every source and version.
func readsNothing(r *Rule) bool {
	for _, fs := range [][]Formula{r.Lets, r.Formulas} {
		for _, f := range fs {
			if len(f.Prog.Paths) > 0 || len(f.Prog.Names) > 0 {
				return false
			}
		}
	}
	return true
}

// foldSource returns the estimator's fold state, creating it for an
// estimator built without NewEstimator.
func (e *Estimator) foldSource() *foldSource {
	if e.folds == nil {
		e.folds = &foldSource{}
	}
	return e.folds
}

// foldVersion re-reads every input the source's folds read and returns
// the version folds must carry to be current: the same as before when
// nothing changed, a new one, retiring every fold, otherwise.
func (e *Estimator) foldVersion() uint64 {
	src := e.foldSource()
	src.mu.Lock()
	defer src.mu.Unlock()
	for i := range src.deps {
		d := &src.deps[i]
		if v, ok := e.foldInput(d.rule, d.path, &d.ref); ok != d.ok || v != d.val {
			src.version++
			src.deps = src.deps[:0]
			break
		}
	}
	return src.version
}

// foldInput reads one input: a rule's catalog path resolved as
// evaluation resolves it.
func (e *Estimator) foldInput(r *Rule, path []string, ref *pathRef) (types.Constant, bool) {
	env := evalEnv{est: e, rule: r, match: &noMatch}
	return env.resolve(path, ref)
}

// noMatch is the empty match fold-time resolution runs under.
var noMatch matchResult

// folded returns the rule's bodies folded for the scratch's version,
// folding them on first use; nil for a rule whose bodies read nothing.
func (e *Estimator) folded(sc *scratch, r *Rule) *ruleFold {
	if r.plain {
		return nil
	}
	if f := r.fold.Load(); f != nil && f.src == e.folds && f.version == sc.foldVersion {
		return f
	}
	f := e.foldRule(r, sc.foldVersion)
	r.fold.Store(f)
	return f
}

// foldRule folds a rule's lets and formulas against the estimator's
// globals and catalog, and records what it read.
func (e *Estimator) foldRule(r *Rule, version uint64) *ruleFold {
	src := e.foldSource()
	f := &ruleFold{src: src, version: version,
		lets: make([]program, len(r.Lets)), formulas: make([]program, len(r.Formulas))}
	var deps []foldDep
	for i := range r.Lets {
		f.lets[i] = e.foldProgram(r, &r.Lets[i], i, &deps)
	}
	for i := range r.Formulas {
		f.formulas[i] = e.foldProgram(r, &r.Formulas[i], len(r.Lets), &deps)
	}
	f.pageSize = 4096
	if v, ok := r.Globals["PageSize"]; ok {
		f.pageSize = v.AsInt()
	} else if v, ok := e.globals["PageSize"]; ok {
		f.pageSize = v.AsInt()
	}
	src.mu.Lock()
	for _, d := range deps {
		src.addDep(d)
	}
	src.mu.Unlock()
	return f
}

// addDep records an input once; the caller holds mu.
func (src *foldSource) addDep(d foldDep) {
	for _, o := range src.deps {
		if o.rule == d.rule && slices.Equal(o.path, d.path) {
			return
		}
	}
	src.deps = append(src.deps, d)
}

// foldProgram folds one body. visible is the number of the rule's lets
// evaluated before it runs: its own index for a let, all of them for a
// formula.
func (e *Estimator) foldProgram(r *Rule, f *Formula, visible int, deps *[]foldDep) program {
	load := func(i int) (types.Constant, bool) {
		path, ref := f.Prog.Paths[i], f.refs[i]
		switch {
		case len(path) == 1:
			// Resolution reaches the globals only past the lets, self
			// variables, arity and head bindings.
			if (ref.let >= 0 && ref.let < visible) || ref.self >= 0 || ref.arity || ref.slot >= 0 {
				return types.Null, false
			}
			if v, ok := r.Globals[path[0]]; ok {
				return v, true
			}
			v, ok := e.globals[path[0]]
			return v, ok
		case len(path) >= 2:
			// A named collection of the rule's own wrapper, whose
			// attribute segment no head variable rebinds.
			if ref.slot >= 0 || ref.net || r.Wrapper == "" || ref.tail.attrSlot >= 0 {
				return types.Null, false
			}
			v, ok := e.foldInput(r, path, &ref)
			if ok {
				*deps = append(*deps, foldDep{rule: r, path: path, ref: ref, val: v, ok: true})
			}
			return v, ok
		}
		return types.Null, false
	}
	call := func(i int) (costvm.Builtin, bool) {
		c := resolveCall(r, f.Prog.Names[i])
		return c.fn, c.fn != nil
	}
	p := program{prog: f.Prog.Fold(load, call)}
	p.refs = r.classifyPaths(p.prog)
	if len(p.prog.Names) > 0 {
		p.calls = make([]callRef, len(p.prog.Names))
		for i, name := range p.prog.Names {
			p.calls[i] = resolveCall(r, name)
		}
	}
	return p
}

// CallIndex invokes function i of the running program through its
// resolution (costvm.IndexedEnv).
func (e *evalEnv) CallIndex(i int, name string, args []types.Constant) (types.Constant, error) {
	if e.prog == nil || i >= len(e.prog.calls) {
		return e.Call(name, args)
	}
	return e.invoke(&e.prog.calls[i], name, args)
}

// Call resolves a function by name: the rule's registry (stdlib plus
// wrapper defs) first, then the contextual cost-model functions.
func (e *evalEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	c := resolveCall(e.rule, name)
	return e.invoke(&c, name, args)
}

func (e *evalEnv) invoke(c *callRef, name string, args []types.Constant) (types.Constant, error) {
	if c.fn != nil {
		return c.fn(args)
	}
	switch c.ctx {
	case ctxSelectivity:
		return e.callSelectivity(args)
	case ctxPredsel:
		return types.Float(e.predSelectivity(e.ctx.node.Pred)), nil
	case ctxJoinsel:
		// A node's join selectivity depends only on its predicate and
		// its inputs, so every formula of the context shares one.
		if !e.ctx.joinSelSet {
			e.ctx.joinSel, e.ctx.joinSelSet = e.joinSelectivity(), true
			e.sc.tab.joinsels++
		}
		return types.Float(e.ctx.joinSel), nil
	case ctxGroups:
		return types.Float(e.groupEstimate()), nil
	}
	return types.Null, fmt.Errorf("unknown function %q", name)
}
