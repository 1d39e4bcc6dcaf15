// Package costvm compiles cost-language expressions (internal/costlang
// ASTs) into a compact bytecode and evaluates them on a small stack
// machine. The paper (§2.4, §7) ships wrapper cost formulas to the
// mediator "semi-compiled in bytecode" so that evaluation during the
// computationally intensive optimization phase is fast; this package is
// that mechanism. A tree-walking interpreter is also provided as the
// baseline for the E4 ablation experiment.
package costvm

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"disco/internal/costlang"
	"disco/internal/types"
)

// ErrUnknownParam reports that a formula referenced a parameter the
// environment cannot resolve — the routine estimation failure that makes
// the estimator fall back to a less specific rule.
var ErrUnknownParam = errors.New("costvm: unknown parameter")

// Env resolves parameter references and function calls during evaluation.
// The cost model supplies an Env wired to the plan node being estimated
// (paper Figure 7 name scheme: C.CountObject, C.A.Min, bare result names).
type Env interface {
	// Lookup resolves a dotted path to a value; ok is false when the path
	// is unknown, which aborts the formula (the caller then falls back to
	// a less specific rule).
	Lookup(path []string) (types.Constant, bool)
	// Call invokes a named function with evaluated arguments.
	Call(name string, args []types.Constant) (types.Constant, error)
}

// IndexedEnv is an Env that also resolves parameters and functions by
// their positions in the program's pools. Evaluation calls LookupIndex
// and CallIndex in place of Lookup and Call on an environment that
// implements it, so an environment that classified a program's paths and
// names once can skip reading the names on every evaluation.
type IndexedEnv interface {
	Env
	// LookupIndex resolves Paths[i] (passed as path) of the program
	// being evaluated.
	LookupIndex(i int, path []string) (types.Constant, bool)
	// CallIndex invokes Names[i] (passed as name) of the program being
	// evaluated.
	CallIndex(i int, name string, args []types.Constant) (types.Constant, error)
}

// Op is a bytecode opcode.
type Op uint8

// The instruction set.
const (
	opConst Op = iota // push Consts[A]
	opLoad            // push Lookup(Paths[A])
	opAdd
	opSub
	opMul
	opDiv
	opNeg
	opCall // call Names[A] with B args popped from the stack
)

// Instr is one instruction; A and B are operands (constant/path/name
// indexes and argument counts).
type Instr struct {
	Op   Op
	A, B uint16
}

// Program is a compiled expression: a linear instruction sequence plus its
// constant, path, and name pools. Programs are immutable after compilation
// and safe for concurrent evaluation (each Eval uses its own stack).
type Program struct {
	Code   []Instr
	Consts []types.Constant
	Paths  [][]string
	Names  []string
	// MaxStack is the stack depth the program needs.
	MaxStack int
	// Source is the original expression text, kept for diagnostics.
	Source string
}

// Compile translates an expression AST into a Program, folding constant
// arithmetic subtrees at compile time (pure-literal `let PageSize = 4096 * 2`
// style expressions become single constants).
func Compile(e costlang.Expr) (*Program, error) {
	p := &Program{Source: e.String()}
	depth, err := p.emit(fold(e), 0)
	if err != nil {
		return nil, err
	}
	_ = depth
	return p, nil
}

// fold evaluates literal-only arithmetic at compile time. Calls are never
// folded (builtins may be replaced per wrapper), and folding is skipped
// when evaluation would error (division by zero surfaces at run time with
// its source context).
func fold(e costlang.Expr) costlang.Expr {
	switch v := e.(type) {
	case *costlang.Neg:
		x := fold(v.X)
		if n, ok := x.(costlang.NumLit); ok {
			return costlang.NumLit(-float64(n))
		}
		return &costlang.Neg{X: x}
	case *costlang.Binary:
		l, r := fold(v.L), fold(v.R)
		ln, lok := l.(costlang.NumLit)
		rn, rok := r.(costlang.NumLit)
		if lok && rok {
			switch v.Op {
			case costlang.OpAdd:
				return costlang.NumLit(float64(ln) + float64(rn))
			case costlang.OpSub:
				return costlang.NumLit(float64(ln) - float64(rn))
			case costlang.OpMul:
				return costlang.NumLit(float64(ln) * float64(rn))
			case costlang.OpDiv:
				if float64(rn) != 0 {
					return costlang.NumLit(float64(ln) / float64(rn))
				}
			}
		}
		return &costlang.Binary{Op: v.Op, L: l, R: r}
	case *costlang.Call:
		args := make([]costlang.Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = fold(a)
		}
		return &costlang.Call{Name: v.Name, Args: args}
	default:
		return e
	}
}

// MustCompile is Compile that panics on error; for statically known
// expressions such as the generic cost model's own rules.
func MustCompile(e costlang.Expr) *Program {
	p, err := Compile(e)
	if err != nil {
		panic("costvm: " + err.Error())
	}
	return p
}

// Literal returns the program MustCompile(costlang.NumLit(v)) compiles to
// — one constant push, with the same pools, stack depth and source text —
// built directly in one allocation, without parsing, folding or emitting.
// The history recorder publishes six of these per observed submit.
func Literal(v float64) *Program {
	lit := &struct {
		p      Program
		code   [1]Instr
		consts [1]types.Constant
	}{code: [1]Instr{{Op: opConst}}, consts: [1]types.Constant{numConst(v)}}
	lit.p = Program{Code: lit.code[:], Consts: lit.consts[:], MaxStack: 1,
		Source: costlang.NumLit(v).String()}
	return &lit.p
}

// Fold partially evaluates the program: every subterm whose parameters
// load resolves and whose calls call resolves (with the arguments
// known) is replaced by the constant it evaluates to, exactly as Eval
// would compute it. A subterm whose evaluation fails is kept, so it
// fails at run time as it would have. load and call get indexes into
// Paths and Names; call must return only functions whose result depends
// on their arguments alone. Fold returns p itself when nothing folds;
// the folded program keeps p's Source.
func (p *Program) Fold(load func(i int) (types.Constant, bool), call func(i int) (Builtin, bool)) *Program {
	// A term is a known value or the instructions computing it; lit
	// instructions push a folded value.
	type instr struct {
		in  Instr
		lit bool
		val types.Constant
	}
	type term struct {
		known bool
		val   types.Constant
		code  []instr
	}
	join := func(ts []term, tail Instr) []instr {
		var out []instr
		for _, t := range ts {
			if t.known {
				out = append(out, instr{lit: true, val: t.val})
			} else {
				out = append(out, t.code...)
			}
		}
		return append(out, instr{in: tail})
	}
	stack := make([]term, 0, p.MaxStack)
	folded := false
	for _, in := range p.Code {
		switch in.Op {
		case opConst:
			if int(in.A) >= len(p.Consts) {
				return p
			}
			stack = append(stack, term{known: true, val: p.Consts[in.A]})
		case opLoad:
			if int(in.A) >= len(p.Paths) {
				return p
			}
			if v, ok := load(int(in.A)); ok {
				stack = append(stack, term{known: true, val: v})
				folded = true
			} else {
				stack = append(stack, term{code: []instr{{in: in}}})
			}
		case opNeg:
			if len(stack) < 1 {
				return p
			}
			x := stack[len(stack)-1]
			if x.known && x.val.IsNumeric() {
				stack[len(stack)-1] = term{known: true, val: types.Float(-x.val.AsFloat())}
				continue
			}
			stack[len(stack)-1] = term{code: join([]term{x}, in)}
		case opAdd, opSub, opMul, opDiv:
			if len(stack) < 2 {
				return p
			}
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			if a.known && b.known {
				if v, err := arith(in.Op, a.val, b.val, p.Source); err == nil {
					stack = append(stack, term{known: true, val: v})
					continue
				}
			}
			stack = append(stack, term{code: join([]term{a, b}, in)})
		case opCall:
			n := int(in.B)
			if int(in.A) >= len(p.Names) || n > len(stack) {
				return p
			}
			args := append([]term(nil), stack[len(stack)-n:]...)
			stack = stack[:len(stack)-n]
			if fn, ok := call(int(in.A)); ok {
				vals := make([]types.Constant, n)
				known := true
				for i, t := range args {
					known = known && t.known
					vals[i] = t.val
				}
				if known {
					if v, err := safeCall(fn, vals); err == nil {
						stack = append(stack, term{known: true, val: v})
						folded = true
						continue
					}
				}
			}
			stack = append(stack, term{code: join(args, in)})
		default:
			return p
		}
	}
	if !folded || len(stack) != 1 {
		return p
	}
	// Re-emit over fresh pools.
	out := &Program{Source: p.Source}
	final := join(stack, Instr{})
	depth := 0
	for _, fi := range final[:len(final)-1] {
		in := fi.in
		switch {
		case fi.lit:
			depth++
			out.push(Instr{Op: opConst, A: out.exactConstIdx(fi.val)}, depth)
		case in.Op == opConst:
			depth++
			out.push(Instr{Op: opConst, A: out.exactConstIdx(p.Consts[in.A])}, depth)
		case in.Op == opLoad:
			depth++
			out.push(Instr{Op: opLoad, A: out.pathIdx(p.Paths[in.A])}, depth)
		case in.Op == opNeg:
			out.push(in, depth)
		case in.Op == opCall:
			depth += 1 - int(in.B)
			out.push(Instr{Op: opCall, A: out.nameIdx(p.Names[in.A]), B: in.B}, depth)
		default:
			depth--
			out.push(in, depth)
		}
	}
	return out
}

// safeCall invokes a function at fold time, turning a panic into an
// error as evaluation does.
func safeCall(fn Builtin, args []types.Constant) (v types.Constant, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = types.Null, fmt.Errorf("costvm: panic folding: %v", r)
		}
	}()
	return fn(args)
}

// emit appends code for e; cur is the stack depth before e executes, and
// the depth after (always cur+1) is returned.
func (p *Program) emit(e costlang.Expr, cur int) (int, error) {
	switch v := e.(type) {
	case costlang.NumLit:
		p.push(Instr{Op: opConst, A: p.constIdx(numConst(float64(v)))}, cur+1)
		return cur + 1, nil
	case costlang.StrLit:
		p.push(Instr{Op: opConst, A: p.constIdx(types.Str(string(v)))}, cur+1)
		return cur + 1, nil
	case costlang.PathRef:
		p.push(Instr{Op: opLoad, A: p.pathIdx([]string(v))}, cur+1)
		return cur + 1, nil
	case *costlang.Neg:
		d, err := p.emit(v.X, cur)
		if err != nil {
			return 0, err
		}
		p.push(Instr{Op: opNeg}, d)
		return d, nil
	case *costlang.Binary:
		d, err := p.emit(v.L, cur)
		if err != nil {
			return 0, err
		}
		d2, err := p.emit(v.R, d)
		if err != nil {
			return 0, err
		}
		var op Op
		switch v.Op {
		case costlang.OpAdd:
			op = opAdd
		case costlang.OpSub:
			op = opSub
		case costlang.OpMul:
			op = opMul
		case costlang.OpDiv:
			op = opDiv
		default:
			return 0, fmt.Errorf("costvm: unknown binary operator %q", v.Op)
		}
		p.push(Instr{Op: op}, d2)
		return d2 - 1, nil
	case *costlang.Call:
		if len(v.Args) > math.MaxUint16 {
			return 0, fmt.Errorf("costvm: too many call arguments")
		}
		d := cur
		for _, a := range v.Args {
			var err error
			d, err = p.emit(a, d)
			if err != nil {
				return 0, err
			}
		}
		p.push(Instr{Op: opCall, A: p.nameIdx(v.Name), B: uint16(len(v.Args))}, d+1)
		return cur + 1, nil
	default:
		return 0, fmt.Errorf("costvm: cannot compile %T", e)
	}
}

func (p *Program) push(in Instr, depth int) {
	p.Code = append(p.Code, in)
	if depth > p.MaxStack {
		p.MaxStack = depth
	}
}

func (p *Program) constIdx(c types.Constant) uint16 {
	for i, e := range p.Consts {
		if e.Equal(c) && e.Kind() == c.Kind() {
			return uint16(i)
		}
	}
	p.Consts = append(p.Consts, c)
	return uint16(len(p.Consts) - 1)
}

// exactConstIdx is constIdx for values that must keep their bits (a
// folded -0 is not 0).
func (p *Program) exactConstIdx(c types.Constant) uint16 {
	for i, e := range p.Consts {
		if e == c {
			return uint16(i)
		}
	}
	p.Consts = append(p.Consts, c)
	return uint16(len(p.Consts) - 1)
}

func (p *Program) pathIdx(path []string) uint16 {
	for i, e := range p.Paths {
		if pathEqual(e, path) {
			return uint16(i)
		}
	}
	p.Paths = append(p.Paths, path)
	return uint16(len(p.Paths) - 1)
}

func (p *Program) nameIdx(name string) uint16 {
	for i, e := range p.Names {
		if e == name {
			return uint16(i)
		}
	}
	p.Names = append(p.Names, name)
	return uint16(len(p.Names) - 1)
}

func pathEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Eval runs the program against env and returns the resulting value.
func (p *Program) Eval(env Env) (types.Constant, error) {
	stack := make([]types.Constant, 0, p.MaxStack)
	return p.evalWith(env, stack)
}

// EvalStack is Eval with a caller-provided stack to avoid per-call
// allocation in the optimizer's hot loop; the slice is used from index 0
// and must have capacity >= MaxStack (it is grown otherwise).
func (p *Program) EvalStack(env Env, stack []types.Constant) (types.Constant, error) {
	return p.evalWith(env, stack[:0])
}

func (p *Program) evalWith(env Env, stack []types.Constant) (val types.Constant, err error) {
	// A Program normally comes out of Compile and is well-formed, but
	// wrapper-supplied rules travel through registration and could arrive
	// corrupt (bad pool index, underflowing code, a panicking Env.Call).
	// Evaluation must never panic out into the optimizer — a malformed
	// rule becomes an error, and the caller falls back to a less specific
	// cost model.
	defer func() {
		if r := recover(); r != nil {
			val, err = types.Null, fmt.Errorf("costvm: panic evaluating %q: %v", p.Source, r)
		}
	}()
	indexed, _ := env.(IndexedEnv)
	for _, in := range p.Code {
		switch in.Op {
		case opConst:
			if int(in.A) >= len(p.Consts) {
				return types.Null, fmt.Errorf("costvm: constant index %d out of range in %q", in.A, p.Source)
			}
			stack = append(stack, p.Consts[in.A])
		case opLoad:
			if int(in.A) >= len(p.Paths) {
				return types.Null, fmt.Errorf("costvm: path index %d out of range in %q", in.A, p.Source)
			}
			var v types.Constant
			var ok bool
			if indexed != nil {
				v, ok = indexed.LookupIndex(int(in.A), p.Paths[in.A])
			} else {
				v, ok = env.Lookup(p.Paths[in.A])
			}
			if !ok {
				// The usual estimation failure (a missing statistic): the
				// estimator's level-fallback machinery catches it, so a
				// static sentinel avoids formatting an error on every miss.
				return types.Null, ErrUnknownParam
			}
			stack = append(stack, v)
		case opNeg:
			top := len(stack) - 1
			if top < 0 {
				return types.Null, fmt.Errorf("costvm: stack underflow in %q", p.Source)
			}
			v := stack[top]
			if !v.IsNumeric() {
				return types.Null, fmt.Errorf("costvm: negation of non-numeric %s in %q", v, p.Source)
			}
			stack[top] = types.Float(-v.AsFloat())
		case opAdd, opSub, opMul, opDiv:
			top := len(stack) - 1
			if top < 1 {
				return types.Null, fmt.Errorf("costvm: stack underflow in %q", p.Source)
			}
			a, b := stack[top-1], stack[top]
			stack = stack[:top]
			// Numbers, the usual case, inline what arith computes.
			if a.IsNumeric() && b.IsNumeric() {
				x, y := a.AsFloat(), b.AsFloat()
				switch {
				case in.Op == opAdd:
					stack[top-1] = types.Float(x + y)
					continue
				case in.Op == opSub:
					stack[top-1] = types.Float(x - y)
					continue
				case in.Op == opMul:
					stack[top-1] = types.Float(x * y)
					continue
				case y != 0:
					stack[top-1] = types.Float(x / y)
					continue
				}
			}
			v, err := arith(in.Op, a, b, p.Source)
			if err != nil {
				return types.Null, err
			}
			stack[top-1] = v
		case opCall:
			n := int(in.B)
			if int(in.A) >= len(p.Names) {
				return types.Null, fmt.Errorf("costvm: name index %d out of range in %q", in.A, p.Source)
			}
			if n > len(stack) {
				return types.Null, fmt.Errorf("costvm: stack underflow in %q", p.Source)
			}
			args := stack[len(stack)-n:]
			var v types.Constant
			var err error
			if indexed != nil {
				v, err = indexed.CallIndex(int(in.A), p.Names[in.A], args)
			} else {
				v, err = env.Call(p.Names[in.A], args)
			}
			if err != nil {
				return types.Null, &callError{name: p.Names[in.A], source: p.Source, err: err}
			}
			stack = stack[:len(stack)-n]
			stack = append(stack, v)
		default:
			return types.Null, fmt.Errorf("costvm: bad opcode %d", in.Op)
		}
	}
	if len(stack) != 1 {
		return types.Null, fmt.Errorf("costvm: program left %d values on stack", len(stack))
	}
	return stack[0], nil
}

// callError is a failed function call in a program. Failing calls are
// routine during estimation (require() declining a rule), so the message
// is formatted only when asked for.
type callError struct {
	name, source string
	err          error
}

func (e *callError) Error() string {
	return fmt.Sprintf("costvm: %s in %q: %v", e.name, e.source, e.err)
}

func arith(op Op, a, b types.Constant, src string) (types.Constant, error) {
	if op == opAdd && (a.Kind() == types.KindString || b.Kind() == types.KindString) {
		return types.Str(a.AsString() + b.AsString()), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return types.Null, fmt.Errorf("costvm: arithmetic on non-numeric operands %s, %s in %q", a, b, src)
	}
	x, y := a.AsFloat(), b.AsFloat()
	var r float64
	switch op {
	case opAdd:
		r = x + y
	case opSub:
		r = x - y
	case opMul:
		r = x * y
	case opDiv:
		if y == 0 {
			return types.Null, fmt.Errorf("costvm: division by zero in %q", src)
		}
		r = x / y
	}
	return types.Float(r), nil
}

// EvalAST evaluates an expression by walking its tree directly — the
// interpreter baseline that the bytecode VM is benchmarked against (E4).
func EvalAST(e costlang.Expr, env Env) (types.Constant, error) {
	switch v := e.(type) {
	case costlang.NumLit:
		return numConst(float64(v)), nil
	case costlang.StrLit:
		return types.Str(string(v)), nil
	case costlang.PathRef:
		val, ok := env.Lookup([]string(v))
		if !ok {
			return types.Null, fmt.Errorf("costvm: unknown parameter %s", v)
		}
		return val, nil
	case *costlang.Neg:
		x, err := EvalAST(v.X, env)
		if err != nil {
			return types.Null, err
		}
		if !x.IsNumeric() {
			return types.Null, fmt.Errorf("costvm: negation of non-numeric %s", x)
		}
		return types.Float(-x.AsFloat()), nil
	case *costlang.Binary:
		l, err := EvalAST(v.L, env)
		if err != nil {
			return types.Null, err
		}
		r, err := EvalAST(v.R, env)
		if err != nil {
			return types.Null, err
		}
		var op Op
		switch v.Op {
		case costlang.OpAdd:
			op = opAdd
		case costlang.OpSub:
			op = opSub
		case costlang.OpMul:
			op = opMul
		case costlang.OpDiv:
			op = opDiv
		}
		return arith(op, l, r, v.String())
	case *costlang.Call:
		args := make([]types.Constant, len(v.Args))
		for i, a := range v.Args {
			x, err := EvalAST(a, env)
			if err != nil {
				return types.Null, err
			}
			args[i] = x
		}
		return env.Call(v.Name, args)
	default:
		return types.Null, fmt.Errorf("costvm: cannot evaluate %T", e)
	}
}

func numConst(f float64) types.Constant {
	if f == float64(int64(f)) && math.Abs(f) < 1e15 {
		return types.Int(int64(f))
	}
	return types.Float(f)
}

// Disassemble renders the program's instructions for the costc tool and
// debugging.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s\n", p.Source)
	for i, in := range p.Code {
		switch in.Op {
		case opConst:
			fmt.Fprintf(&b, "%3d  const  %s\n", i, p.Consts[in.A])
		case opLoad:
			fmt.Fprintf(&b, "%3d  load   %s\n", i, strings.Join(p.Paths[in.A], "."))
		case opAdd:
			fmt.Fprintf(&b, "%3d  add\n", i)
		case opSub:
			fmt.Fprintf(&b, "%3d  sub\n", i)
		case opMul:
			fmt.Fprintf(&b, "%3d  mul\n", i)
		case opDiv:
			fmt.Fprintf(&b, "%3d  div\n", i)
		case opNeg:
			fmt.Fprintf(&b, "%3d  neg\n", i)
		case opCall:
			fmt.Fprintf(&b, "%3d  call   %s/%d\n", i, p.Names[in.A], in.B)
		}
	}
	return b.String()
}
