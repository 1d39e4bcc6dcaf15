package experiments

import (
	"fmt"
	"strings"
	"time"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/costlang"
	"disco/internal/costvm"
	"disco/internal/mediator"
	"disco/internal/objstore"
	"disco/internal/oo7"
	"disco/internal/stats"
	"disco/internal/types"
)

// oo7Mediator couples a mediator with its OO7 object store so experiments
// can reset buffers between measurements.
type oo7Mediator struct {
	*mediator.Mediator
	store *objstore.Store
}

// Wrapperstore exposes the deployment's object store.
func (m *oo7Mediator) Wrapperstore() *objstore.Store { return m.store }

// newMediatorOO7 assembles a mediator over one OO7 object source, with or
// without integrating the wrapper's exported cost rules.
func newMediatorOO7(scale oo7.Scale, useRules bool) (*oo7Mediator, error) {
	cfg := mediator.DefaultConfig()
	cfg.UseWrapperRules = useRules
	cfg.RecordHistory = false
	m, err := mediator.New(cfg)
	if err != nil {
		return nil, err
	}
	scfg := objstore.DefaultConfig()
	scfg.BufferPages = scale.AtomicParts/70 + 64
	store := objstore.Open(scfg)
	if err := oo7.Generate(store, scale, 1); err != nil {
		return nil, err
	}
	w := newObjWrapper(store)
	if err := m.Register(w); err != nil {
		return nil, err
	}
	return &oo7Mediator{Mediator: m, store: store}, nil
}

// RuleOverheadRow is one point of experiment E4: optimization-time cost
// of rule matching as the rule population grows.
type RuleOverheadRow struct {
	Rules          int
	EstimateMicros float64 // mean wall-clock microseconds per plan estimation
}

// RuleOverheadResult holds the E4 matching table.
type RuleOverheadResult struct {
	Rows []RuleOverheadRow
	// Bytecode vs. tree-walking interpreter, nanoseconds per formula
	// evaluation (the §2.4 code-shipping claim).
	BytecodeNS, InterpNS float64
}

// Table renders E4.
func (r *RuleOverheadResult) Table() string {
	var b strings.Builder
	b.WriteString("E4 — cost-estimation overhead vs. registered rule count\n")
	fmt.Fprintf(&b, "%10s %22s\n", "rules", "µs per plan estimate")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %22.1f\n", row.Rules, row.EstimateMicros)
	}
	fmt.Fprintf(&b, "formula evaluation: bytecode %.0f ns/op, tree-walking %.0f ns/op (%.1fx)\n",
		r.BytecodeNS, r.InterpNS, r.InterpNS/r.BytecodeNS)
	return b.String()
}

// RuleOverhead runs E4: registers growing numbers of predicate-scope
// rules and times the estimation of a fixed plan; then compares bytecode
// and interpreter evaluation of the Figure 13 formula.
func RuleOverhead(ruleCounts []int, iters int) (*RuleOverheadResult, error) {
	if len(ruleCounts) == 0 {
		ruleCounts = []int{0, 10, 100, 1000, 3000}
	}
	if iters <= 0 {
		iters = 200
	}
	scale := oo7.TinyScale()
	d, err := newOO7Deployment(scale, 0)
	if err != nil {
		return nil, err
	}
	plan, err := d.rangePlan(0.1)
	if err != nil {
		return nil, err
	}
	out := &RuleOverheadResult{}
	for _, n := range ruleCounts {
		reg, err := core.NewDefaultRegistry()
		if err != nil {
			return nil, err
		}
		if n > 0 {
			var sb strings.Builder
			for i := 0; i < n; i++ {
				// Query-specific rules on distinct constants: all are
				// candidates for select nodes, none matches the plan.
				fmt.Fprintf(&sb, "select(AtomicParts, id = %d) { TotalTime = %d; }\n", 1000000+i, i+1)
			}
			file, err := costlang.Parse(sb.String())
			if err != nil {
				return nil, err
			}
			if err := reg.IntegrateWrapper("oo7", file, d.cat); err != nil {
				return nil, err
			}
		}
		est := core.NewEstimator(reg, d.cat, core.UniformNet{})
		// Warm up once, then time.
		if _, err := est.Estimate(plan); err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := est.Estimate(plan); err != nil {
				return nil, err
			}
		}
		out.Rows = append(out.Rows, RuleOverheadRow{
			Rules:          n,
			EstimateMicros: float64(time.Since(start).Microseconds()) / float64(iters),
		})
	}

	// Bytecode vs interpreter on the Figure 13 TotalTime expression.
	expr, err := costlang.ParseExpr(
		`IO * CountPage * (1 - exp(-1 * (CountObject / CountPage))) + CountObject * Output`)
	if err != nil {
		return nil, err
	}
	prog, err := costvm.Compile(expr)
	if err != nil {
		return nil, err
	}
	env := benchEnv{vars: map[string]types.Constant{
		"IO": types.Int(25), "Output": types.Int(9),
		"CountPage": types.Int(1000), "CountObject": types.Float(35000),
	}, funcs: costvm.NewFuncRegistry()}
	const evals = 100000
	start := time.Now()
	for i := 0; i < evals; i++ {
		if _, err := prog.Eval(env); err != nil {
			return nil, err
		}
	}
	out.BytecodeNS = float64(time.Since(start).Nanoseconds()) / evals
	start = time.Now()
	for i := 0; i < evals; i++ {
		if _, err := costvm.EvalAST(expr, env); err != nil {
			return nil, err
		}
	}
	out.InterpNS = float64(time.Since(start).Nanoseconds()) / evals
	return out, nil
}

type benchEnv struct {
	vars  map[string]types.Constant
	funcs *costvm.FuncRegistry
}

func (e benchEnv) Lookup(path []string) (types.Constant, bool) {
	if len(path) != 1 {
		return types.Null, false
	}
	v, ok := e.vars[path[0]]
	return v, ok
}

func (e benchEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	return e.funcs.Call(name, args)
}

// HistoryRow is one query of experiment E5.
type HistoryRow struct {
	Query        string
	FirstErrPct  float64 // relative error of the estimate before execution
	RepeatErrPct float64 // after the query-scope rule was recorded
}

// HistoryResult holds the E5 table.
type HistoryResult struct {
	Rows []HistoryRow
}

// Table renders E5.
func (r *HistoryResult) Table() string {
	var b strings.Builder
	b.WriteString("E5 — historical query-scope rules: estimate error before/after recording\n")
	fmt.Fprintf(&b, "%-40s %14s %14s\n", "query", "first run", "repeat run")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-40s %13.1f%% %13.1f%%\n", row.Query, row.FirstErrPct, row.RepeatErrPct)
	}
	return b.String()
}

// History runs E5: prepares and executes each query twice against a
// history-recording mediator; the repeat estimate uses the recorded cost
// vector.
func History(scale oo7.Scale) (*HistoryResult, error) {
	m, err := mediator.New(mediator.DefaultConfig())
	if err != nil {
		return nil, err
	}
	scfg := objstore.DefaultConfig()
	scfg.BufferPages = scale.AtomicParts/70 + 64
	store := objstore.Open(scfg)
	if err := oo7.Generate(store, scale, 1); err != nil {
		return nil, err
	}
	if err := m.Register(newObjWrapper(store)); err != nil {
		return nil, err
	}
	queries := []string{
		`SELECT x FROM AtomicParts WHERE buildDate < 37`,
		`SELECT x, y FROM AtomicParts WHERE AtomicParts.id < 500`,
		`SELECT title FROM Documents WHERE partId = 99`,
	}
	out := &HistoryResult{}
	for _, sql := range queries {
		p1, err := m.Prepare(sql)
		if err != nil {
			return nil, err
		}
		// Cold-start both executions: the paper's historical model
		// assumes two executions of the same subquery cost the same.
		store.ResetBuffer()
		res1, err := m.ExecutePlan(p1)
		if err != nil {
			return nil, err
		}
		p2, err := m.Prepare(sql)
		if err != nil {
			return nil, err
		}
		store.ResetBuffer()
		res2, err := m.ExecutePlan(p2)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, HistoryRow{
			Query:        sql,
			FirstErrPct:  100 * relErr(p1.Cost.TotalTime(), res1.ElapsedMS),
			RepeatErrPct: 100 * relErr(p2.Cost.TotalTime(), res2.ElapsedMS),
		})
	}
	return out, nil
}

func relErr(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	d := est - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

// PruningRow is one configuration of experiment E6.
type PruningRow struct {
	Config       string
	NodesVisited int
	FormulaEvals int
}

// PruningResult holds the E6 table.
type PruningResult struct {
	Rows []PruningRow
	// BudgetAborted reports whether branch-and-bound cut off an
	// over-budget plan.
	BudgetAborted bool
}

// Table renders E6.
func (r *PruningResult) Table() string {
	var b strings.Builder
	b.WriteString("E6 — estimation-algorithm optimizations (paper §4.2-4.3)\n")
	fmt.Fprintf(&b, "%-34s %14s %14s\n", "configuration", "nodes visited", "formula evals")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %14d %14d\n", row.Config, row.NodesVisited, row.FormulaEvals)
	}
	fmt.Fprintf(&b, "branch-and-bound aborts over-budget plans: %v\n", r.BudgetAborted)
	return b.String()
}

// Pruning runs E6 on a deep plan: full estimation, required-variables
// estimation, required-variables with a constant wrapper rule at the
// boundary (maximal traversal cut), and a branch-and-bound abort.
func Pruning() (*PruningResult, error) {
	scale := oo7.TinyScale()
	d, err := newOO7Deployment(scale, 0)
	if err != nil {
		return nil, err
	}
	// A deep unary chain over a submit.
	inner := oo7.RangeOnID("oo7", scale, 0.2)
	plan := algebra.Sort(
		algebra.DupElim(
			algebra.Project(
				algebra.Select(
					algebra.Submit(inner, "oo7"),
					algebra.NewSelPred(algebra.Ref{Collection: oo7.AtomicParts, Attr: "x"}, stats.CmpGT, types.Int(10))),
				"AtomicParts.x", "AtomicParts.y")),
		algebra.SortKey{Attr: algebra.Ref{Attr: "x"}})
	if err := algebra.Resolve(plan, d.cat); err != nil {
		return nil, err
	}
	out := &PruningResult{}

	run := func(name string, prep func(*core.Estimator) error) error {
		reg, err := core.NewDefaultRegistry()
		if err != nil {
			return err
		}
		est := core.NewEstimator(reg, d.cat, core.UniformNet{})
		if prep != nil {
			if err := prep(est); err != nil {
				return err
			}
		}
		pc, err := est.Estimate(plan)
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, PruningRow{Config: name,
			NodesVisited: pc.NodesVisited, FormulaEvals: pc.FormulaEvals})
		return nil
	}
	if err := run("full (no optimizations)", nil); err != nil {
		return nil, err
	}
	if err := run("required variables only", func(e *core.Estimator) error {
		e.Options.RequiredVarsOnly = true
		e.Options.RootVars = []string{"TotalTime"}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := run("required vars + constant rule", func(e *core.Estimator) error {
		e.Options.RequiredVarsOnly = true
		e.Options.RootVars = []string{"TotalTime"}
		file, err := costlang.Parse(
			`submit(C) { TotalTime = 5000; TimeFirst = 10; TimeNext = 1; CountObject = 4000; TotalSize = 224000; ObjectSize = 56; }`)
		if err != nil {
			return err
		}
		return e.Registry.IntegrateWrapper("oo7", file, d.cat)
	}); err != nil {
		return nil, err
	}

	// Branch-and-bound abort.
	reg, err := core.NewDefaultRegistry()
	if err != nil {
		return nil, err
	}
	est := core.NewEstimator(reg, d.cat, core.UniformNet{})
	est.Options.Budget = 1 // far below any real plan
	if _, err := est.Estimate(plan); err == core.ErrOverBudget {
		out.BudgetAborted = true
	} else if err != nil {
		return nil, err
	}
	return out, nil
}
