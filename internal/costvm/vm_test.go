package costvm

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"disco/internal/costlang"
	"disco/internal/types"
)

// CompileString parses and compiles an expression in one step.
func CompileString(src string) (*Program, error) {
	e, err := costlang.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return Compile(e)
}

// mapEnv is a test Env over a flat map keyed by the joined path.
type mapEnv struct {
	vars map[string]types.Constant
	reg  *FuncRegistry
}

func newMapEnv(vars map[string]types.Constant) *mapEnv {
	return &mapEnv{vars: vars, reg: NewFuncRegistry()}
}

func (e *mapEnv) Lookup(path []string) (types.Constant, bool) {
	v, ok := e.vars[strings.Join(path, ".")]
	return v, ok
}

func (e *mapEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	return e.reg.Call(name, args)
}

func evalStr(t *testing.T, src string, env Env) types.Constant {
	t.Helper()
	p, err := CompileString(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := p.Eval(env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	env := newMapEnv(nil)
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2.5},
		{"-5 + 3", -2},
		{"2 - -3", 5},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"exp(0)", 1},
		{"ln(exp(2))", 2},
		{"sqrt(16)", 4},
		{"ceil(1.2)", 2},
		{"floor(1.8)", 1},
		{"abs(-7)", 7},
		{"pow(2, 10)", 1024},
		{"if(gt(3, 2), 10, 20)", 10},
		{"if(lt(3, 2), 10, 20)", 20},
		{"eq(3, 3) + eq(3, 4)", 1},
		{"le(2,2) + ge(2,2)", 2},
		{"log2(8)", 3},
		{"log10(1000)", 3},
	}
	for _, c := range cases {
		got := evalStr(t, c.src, env)
		if math.Abs(got.AsFloat()-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPathLookup(t *testing.T) {
	env := newMapEnv(map[string]types.Constant{
		"C.CountObject": types.Int(70000),
		"C.TotalSize":   types.Int(4096000),
		"C.Id.Min":      types.Int(0),
		"C.Id.Max":      types.Int(70000),
		"PageSize":      types.Int(4096),
	})
	got := evalStr(t, "C.TotalSize / PageSize", env)
	if got.AsFloat() != 1000 {
		t.Errorf("pages = %v", got)
	}
	got = evalStr(t, "(35000 - C.Id.Min) / (C.Id.Max - C.Id.Min)", env)
	if got.AsFloat() != 0.5 {
		t.Errorf("selectivity = %v", got)
	}
}

func TestPaperYaoFormula(t *testing.T) {
	// The full Figure 13 TotalTime expression with the paper's constants.
	env := newMapEnv(map[string]types.Constant{
		"CountObject": types.Float(35000), // sel = 0.5
		"CountPage":   types.Int(1000),
		"IO":          types.Int(25),
		"Output":      types.Int(9),
	})
	src := `IO * CountPage * (1 - exp(-1 * (CountObject / CountPage))) + CountObject * Output`
	got := evalStr(t, src, env).AsFloat()
	// 25*1000*(1 - e^-35) + 35000*9 = 25000 + 315000 = 340000 ms.
	if math.Abs(got-340000) > 1 {
		t.Errorf("Yao TotalTime = %v, want ~340000", got)
	}
}

func TestErrors(t *testing.T) {
	env := newMapEnv(map[string]types.Constant{"s": types.Str("x")})
	bad := []string{
		"1 / 0",
		"unknown.path",
		"s * 2",
		"-s",
		"nosuchfn(1)",
		"exp(1, 2)",
		"min()",
		"exp('a')",
		"ln(0) * 0", // -Inf is rejected as non-finite
		"sqrt(-1)",  // NaN rejected
	}
	for _, src := range bad {
		p, err := CompileString(src)
		if err != nil {
			continue // compile-time rejection also fine
		}
		if _, err := p.Eval(env); err == nil {
			t.Errorf("eval %q should fail", src)
		}
	}
}

func TestStringConcat(t *testing.T) {
	env := newMapEnv(nil)
	got := evalStr(t, `"foo" + "bar"`, env)
	if got.AsString() != "foobar" {
		t.Errorf("concat = %v", got)
	}
}

func TestDefFunctions(t *testing.T) {
	f, err := costlang.Parse(`def double(x) = x * 2;
def hyp(a, b) = sqrt(a*a + b*b);
def twice(x) = double(double(x));
scan(C) { TotalTime = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewFuncRegistry()
	for _, d := range f.Funcs {
		if err := reg.RegisterDef(d); err != nil {
			t.Fatal(err)
		}
	}
	env := &mapEnv{vars: nil, reg: reg}
	if got := evalStr(t, "double(21)", env); got.AsFloat() != 42 {
		t.Errorf("double = %v", got)
	}
	if got := evalStr(t, "hyp(3, 4)", env); got.AsFloat() != 5 {
		t.Errorf("hyp = %v", got)
	}
	if got := evalStr(t, "twice(10)", env); got.AsFloat() != 40 {
		t.Errorf("twice (nested defs) = %v", got)
	}
	// Arity mismatch.
	if _, err := reg.Call("double", []types.Constant{types.Int(1), types.Int(2)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Def params do not leak to the outer env.
	if _, err := CompileString("x"); err != nil {
		t.Fatal(err)
	}
	p, _ := CompileString("x")
	if _, err := p.Eval(env); err == nil {
		t.Error("def param should not be visible outside the def")
	}
}

func TestRegistryClone(t *testing.T) {
	base := NewFuncRegistry()
	clone := base.Clone()
	clone.Register("special", func([]types.Constant) (types.Constant, error) {
		return types.Int(7), nil
	})
	if _, ok := base.Lookup("special"); ok {
		t.Error("clone registration leaked to base")
	}
	_, special := clone.Lookup("special")
	_, exp := clone.Lookup("EXP")
	if !special || !exp {
		t.Error("clone should have both special and stdlib")
	}
}

// Property: the bytecode VM and the tree-walking interpreter agree on
// random arithmetic expressions over bounded integers.
func TestVMMatchesInterpreter(t *testing.T) {
	f := func(a, b, c int16, pick uint8) bool {
		srcs := []string{
			"A + B * C",
			"(A - B) * (C + 2)",
			"A * A - B * B + C",
			"min(A, B) + max(B, C)",
			"abs(A - B) + abs(C)",
			"if(gt(A, B), A, B) - C",
		}
		src := srcs[int(pick)%len(srcs)]
		env := newMapEnv(map[string]types.Constant{
			"A": types.Int(int64(a)),
			"B": types.Int(int64(b)),
			"C": types.Int(int64(c)),
		})
		expr, err := costlang.ParseExpr(src)
		if err != nil {
			return false
		}
		prog, err := Compile(expr)
		if err != nil {
			return false
		}
		v1, err1 := prog.Eval(env)
		v2, err2 := EvalAST(expr, env)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(v1.AsFloat()-v2.AsFloat()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDisassemble(t *testing.T) {
	p, err := CompileString("1 + C.x * exp(2)")
	if err != nil {
		t.Fatal(err)
	}
	dis := p.Disassemble()
	for _, want := range []string{"const", "load   C.x", "call   exp/1", "mul", "add"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestConstantPoolDedup(t *testing.T) {
	p, err := CompileString("2 + 2 + 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Consts) != 1 {
		t.Errorf("constant pool = %d entries, want 1 (deduped)", len(p.Consts))
	}
}

func TestEvalStackReuse(t *testing.T) {
	p, err := CompileString("1 + 2 * 3 - 4")
	if err != nil {
		t.Fatal(err)
	}
	stack := make([]types.Constant, 0, p.MaxStack)
	for i := 0; i < 3; i++ {
		v, err := p.EvalStack(newMapEnv(nil), stack)
		if err != nil || v.AsFloat() != 3 {
			t.Fatalf("EvalStack = %v, %v", v, err)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	p, err := CompileString("1 + 2 * 3 - 4 / 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 1 {
		t.Errorf("constant expression should fold to one instruction, got %d:\n%s",
			len(p.Code), p.Disassemble())
	}
	v, err := p.Eval(newMapEnv(nil))
	if err != nil || v.AsFloat() != 5 {
		t.Errorf("folded value = %v, %v", v, err)
	}
	// Partial folding inside a larger expression.
	p2, err := CompileString("x * (2 + 3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Code) != 3 { // load x, const 5, mul
		t.Errorf("partial fold = %d instructions:\n%s", len(p2.Code), p2.Disassemble())
	}
	// Division by zero is NOT folded; it errors at run time.
	p3, err := CompileString("1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Eval(newMapEnv(nil)); err == nil {
		t.Error("1/0 should error at evaluation")
	}
	// Calls are not folded (their bindings are per-wrapper).
	p4, err := CompileString("exp(0)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p4.Code) != 2 {
		t.Errorf("call should not fold: %d instructions", len(p4.Code))
	}
	// Unary folding.
	p5, err := CompileString("-(2 + 3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p5.Code) != 1 {
		t.Errorf("negated constant should fold: %d instructions", len(p5.Code))
	}
}

// panicEnv panics on every call, standing in for a buggy per-wrapper
// function binding.
type panicEnv struct{}

func (panicEnv) Lookup(path []string) (types.Constant, bool) { return types.Int(1), true }
func (panicEnv) Call(name string, args []types.Constant) (types.Constant, error) {
	panic("boom: " + name)
}

// Corrupt programs (bad pool indexes, underflowing code) and panicking
// environments must surface as returned errors, never as panics escaping
// into the optimizer.
func TestEvalCorruptProgramsError(t *testing.T) {
	env := newMapEnv(nil)
	cases := []struct {
		name string
		p    *Program
	}{
		{"const index out of range", &Program{
			Code: []Instr{{Op: opConst, A: 7}}, MaxStack: 1, Source: "corrupt-const"}},
		{"path index out of range", &Program{
			Code: []Instr{{Op: opLoad, A: 3}}, MaxStack: 1, Source: "corrupt-load"}},
		{"name index out of range", &Program{
			Code: []Instr{{Op: opCall, A: 2, B: 0}}, MaxStack: 1, Source: "corrupt-call"}},
		{"neg underflow", &Program{
			Code: []Instr{{Op: opNeg}}, Source: "corrupt-neg"}},
		{"arith underflow", &Program{
			Code:   []Instr{{Op: opConst, A: 0}, {Op: opAdd}},
			Consts: []types.Constant{types.Int(1)}, MaxStack: 1, Source: "corrupt-add"}},
		{"call arg underflow", &Program{
			Code:  []Instr{{Op: opCall, A: 0, B: 4}},
			Names: []string{"min"}, MaxStack: 1, Source: "corrupt-argc"}},
		{"empty program", &Program{Source: "corrupt-empty"}},
		{"bad opcode", &Program{
			Code: []Instr{{Op: Op(200)}}, Source: "corrupt-op"}},
		{"leftover stack", &Program{
			Code:   []Instr{{Op: opConst, A: 0}, {Op: opConst, A: 0}},
			Consts: []types.Constant{types.Int(1)}, MaxStack: 2, Source: "corrupt-left"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.p.Eval(env); err == nil {
				t.Errorf("%s: Eval should return an error", c.name)
			}
		})
	}
}

func TestEvalRecoversEnvPanic(t *testing.T) {
	p, err := CompileString("1 + f(2)")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Eval(panicEnv{})
	if err == nil {
		t.Fatal("panicking Env.Call should become an error")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should carry the panic value: %v", err)
	}
	if v != types.Null {
		t.Errorf("value on error = %v, want Null", v)
	}
}

// Literal builds, without compiling, exactly the program MustCompile makes
// of a number literal: code, pools, stack depth, source and disassembly.
func TestLiteralMatchesCompile(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 42, -7, 0.5, -2.25, 1.0 / 3, 123456.789,
		999999999999999, 1e15, -1e15, 1e15 + 1, 3e20, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want := MustCompile(costlang.NumLit(v))
		got := Literal(v)
		if !reflect.DeepEqual(got.Code, want.Code) || got.MaxStack != want.MaxStack ||
			got.Source != want.Source || len(got.Paths) != 0 || len(got.Names) != 0 {
			t.Errorf("%v: Literal %+v, MustCompile %+v", v, *got, *want)
		}
		if len(got.Consts) != 1 || len(want.Consts) != 1 || got.Consts[0].Kind() != want.Consts[0].Kind() ||
			got.Consts[0] != want.Consts[0] {
			t.Errorf("%v: Literal consts %v, MustCompile %v", v, got.Consts, want.Consts)
		}
		if got.Disassemble() != want.Disassemble() {
			t.Errorf("%v: Literal disassembles to\n%s\nMustCompile to\n%s", v, got.Disassemble(), want.Disassemble())
		}
		if x, err := got.Eval(newMapEnv(nil)); err != nil || x != want.Consts[0] {
			t.Errorf("%v: Literal evaluates to %v, %v", v, x, err)
		}
	}
}

// Property: a folded program evaluates exactly like the program it was
// folded from — the same value, bit for bit and kind for kind, or an
// error where it erred — whichever parameters fold (K, L: known at fold
// time) and whichever stay loads (X, Y, and K or L when the fold does not
// know them), across division by zero, failing require() and string
// concatenation.
func TestFoldPreservesEvaluation(t *testing.T) {
	srcs := []string{
		"K * X + L",
		"(K + L) * X - K / L",
		"max(X, K * 2) + min(L, Y)",
		"require(gt(K, 0), X / K) + L",
		"if(gt(X, L), K / 0, K - L) * Y",
		"exp(0 - K / max(L, 1)) * X + -K",
		"K + L + X",
		"X + (K + \"s\")",
		"require(lt(L, K), 1) + K * L",
		"K * K * K",
	}
	f := func(k, l, x, y int16, kf, lf bool, pick uint8, floats bool) bool {
		num := func(v int16) types.Constant {
			if floats {
				return types.Float(float64(v) / 8)
			}
			return types.Int(int64(v))
		}
		vars := map[string]types.Constant{"K": num(k), "L": num(l), "X": num(x), "Y": num(y)}
		src := srcs[int(pick)%len(srcs)]
		prog, err := CompileString(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		reg := NewFuncRegistry()
		folded := prog.Fold(func(i int) (types.Constant, bool) {
			name := prog.Paths[i][0]
			if (name == "K" && kf) || (name == "L" && lf) {
				return vars[name], true
			}
			return types.Null, false
		}, func(i int) (Builtin, bool) { return reg.Lookup(prog.Names[i]) })
		env := newMapEnv(vars)
		want, werr := prog.Eval(env)
		got, gerr := folded.Eval(env)
		if (werr == nil) != (gerr == nil) || got != want {
			t.Logf("%s with %v (K folded %v, L folded %v): folded %v, %v; original %v, %v\n%s",
				src, vars, kf, lf, got, gerr, want, werr, folded.Disassemble())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Everything known folds to one constant push.
	prog, err := CompileString("max(K, 2) * K + 1")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewFuncRegistry()
	lit := prog.Fold(func(int) (types.Constant, bool) { return types.Int(3), true },
		func(i int) (Builtin, bool) { return reg.Lookup(prog.Names[i]) })
	if len(lit.Code) != 1 || len(lit.Paths) != 0 || len(lit.Names) != 0 || lit.Source != prog.Source {
		t.Errorf("fully known program folded to:\n%s", lit.Disassemble())
	}
	if v, err := lit.Eval(newMapEnv(nil)); err != nil || v != types.Float(10) {
		t.Errorf("folded literal = %v, %v, want 10", v, err)
	}
}
