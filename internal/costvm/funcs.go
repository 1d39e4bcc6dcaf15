package costvm

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"disco/internal/costlang"
	"disco/internal/stats"
	"disco/internal/types"
)

// Builtin is a Go-implemented cost-language function.
type Builtin func(args []types.Constant) (types.Constant, error)

// FuncRegistry maps function names (case-insensitive) to implementations.
// Wrapper `def` functions are compiled and registered next to the
// builtins; the standard library below is available to every rule, the
// analogue of the paper's "entire library of code in the mediator ...
// available to the wrapper implementor" (§2.4).
type FuncRegistry struct {
	funcs map[string]Builtin
}

// NewFuncRegistry returns a registry preloaded with the standard builtins.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{funcs: make(map[string]Builtin, 32)}
	r.registerStdlib()
	return r
}

// Register adds or replaces a function.
func (r *FuncRegistry) Register(name string, fn Builtin) {
	r.funcs[strings.ToLower(name)] = fn
}

// Lookup returns a registered function; names are case-insensitive.
func (r *FuncRegistry) Lookup(name string) (Builtin, bool) {
	fn, ok := r.funcs[strings.ToLower(name)]
	return fn, ok
}

// Call invokes a registered function.
func (r *FuncRegistry) Call(name string, args []types.Constant) (types.Constant, error) {
	fn, ok := r.funcs[strings.ToLower(name)]
	if !ok {
		return types.Null, fmt.Errorf("unknown function %q", name)
	}
	return fn(args)
}

// Clone returns an independent copy; per-wrapper registries are clones of
// the mediator's base registry so wrapper defs cannot leak across sources.
func (r *FuncRegistry) Clone() *FuncRegistry {
	out := &FuncRegistry{funcs: make(map[string]Builtin, len(r.funcs))}
	for k, v := range r.funcs {
		out.funcs[k] = v
	}
	return out
}

// RegisterDef compiles a wrapper-defined `def` function and registers it.
// The body may reference the function parameters by name and anything the
// enclosing environment resolves.
func (r *FuncRegistry) RegisterDef(def *costlang.FuncDef) error {
	prog, err := Compile(def.Body)
	if err != nil {
		return fmt.Errorf("costvm: compiling def %s: %w", def.Name, err)
	}
	params := append([]string(nil), def.Params...)
	name := def.Name
	r.Register(name, func(args []types.Constant) (types.Constant, error) {
		if len(args) != len(params) {
			return types.Null, fmt.Errorf("%s expects %d args, got %d", name, len(params), len(args))
		}
		// Parameters shadow the outer environment; the outer env is not
		// visible from inside a def (defs are pure functions of their
		// arguments plus other functions).
		env := &defEnv{params: params, args: args, reg: r}
		return prog.Eval(env)
	})
	return nil
}

type defEnv struct {
	params []string
	args   []types.Constant
	reg    *FuncRegistry
}

func (e *defEnv) Lookup(path []string) (types.Constant, bool) {
	if len(path) == 1 {
		for i, p := range e.params {
			if strings.EqualFold(p, path[0]) {
				return e.args[i], true
			}
		}
	}
	return types.Null, false
}

func (e *defEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	return e.reg.Call(name, args)
}

// errRequire is require()'s refusal: a routine outcome of estimation (the
// rule declines, the next level applies), so it is one static error.
var errRequire = errors.New("require condition not satisfied")

func (r *FuncRegistry) registerStdlib() {
	unary := func(name string, fn func(float64) float64) {
		r.Register(name, func(args []types.Constant) (types.Constant, error) {
			if len(args) != 1 {
				return types.Null, fmt.Errorf("%s expects 1 arg", name)
			}
			if !args[0].IsNumeric() {
				return types.Null, fmt.Errorf("%s expects a numeric arg, got %s", name, args[0])
			}
			v := fn(args[0].AsFloat())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return types.Null, fmt.Errorf("%s(%s) is not finite", name, args[0])
			}
			return types.Float(v), nil
		})
	}
	unary("exp", math.Exp)
	unary("ln", math.Log)
	unary("log", math.Log)
	unary("log2", math.Log2)
	unary("log10", math.Log10)
	unary("sqrt", math.Sqrt)
	unary("ceil", math.Ceil)
	unary("floor", math.Floor)
	unary("abs", math.Abs)

	variadicFold := func(name string, pick func(a, b float64) float64) {
		r.Register(name, func(args []types.Constant) (types.Constant, error) {
			if len(args) == 0 {
				return types.Null, fmt.Errorf("%s expects at least 1 arg", name)
			}
			acc := args[0].AsFloat()
			for _, a := range args[1:] {
				if !a.IsNumeric() {
					return types.Null, fmt.Errorf("%s expects numeric args", name)
				}
				acc = pick(acc, a.AsFloat())
			}
			return types.Float(acc), nil
		})
	}
	variadicFold("min", math.Min)
	variadicFold("max", math.Max)

	r.Register("pow", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 2 {
			return types.Null, fmt.Errorf("pow expects 2 args")
		}
		return types.Float(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	})

	// require(cond, value): value when cond is truthy, an error otherwise.
	// A failing formula falls back to the next less-specific rule in the
	// scope hierarchy, so require() is how a rule opts out of situations
	// it does not cover (e.g. an index-scan formula when no index
	// exists).
	r.Register("require", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 2 {
			return types.Null, fmt.Errorf("require expects 2 args (condition, value)")
		}
		if !args[0].AsBool() {
			return types.Null, errRequire
		}
		return args[1], nil
	})

	// if(cond, then, else): cond is truthy when nonzero/non-empty.
	r.Register("if", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 3 {
			return types.Null, fmt.Errorf("if expects 3 args")
		}
		if args[0].AsBool() {
			return args[1], nil
		}
		return args[2], nil
	})

	cmp := func(name string, want func(int) bool) {
		r.Register(name, func(args []types.Constant) (types.Constant, error) {
			if len(args) != 2 {
				return types.Null, fmt.Errorf("%s expects 2 args", name)
			}
			if want(args[0].Compare(args[1])) {
				return types.Int(1), nil
			}
			return types.Int(0), nil
		})
	}
	cmp("lt", func(c int) bool { return c < 0 })
	cmp("le", func(c int) bool { return c <= 0 })
	cmp("gt", func(c int) bool { return c > 0 })
	cmp("ge", func(c int) bool { return c >= 0 })
	r.Register("eq", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 2 {
			return types.Null, fmt.Errorf("eq expects 2 args")
		}
		if args[0].Equal(args[1]) {
			return types.Int(1), nil
		}
		return types.Int(0), nil
	})

	// yao(countObject, countPage, k): exact Yao page-touch fraction.
	r.Register("yao", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 3 {
			return types.Null, fmt.Errorf("yao expects 3 args (countObject, countPage, k)")
		}
		return types.Float(stats.Yao(args[0].AsInt(), args[1].AsInt(), args[2].AsInt())), nil
	})
	// yaoapprox(countObject, countPage, sel): the paper's exponential form.
	r.Register("yaoapprox", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 3 {
			return types.Null, fmt.Errorf("yaoapprox expects 3 args (countObject, countPage, sel)")
		}
		return types.Float(stats.YaoApprox(args[0].AsInt(), args[1].AsInt(), args[2].AsFloat())), nil
	})
	// frac(v, lo, hi): position of v within [lo, hi], any comparable kind.
	r.Register("frac", func(args []types.Constant) (types.Constant, error) {
		if len(args) != 3 {
			return types.Null, fmt.Errorf("frac expects 3 args (v, lo, hi)")
		}
		return types.Float(types.Fraction(args[0], args[1], args[2])), nil
	})
}
