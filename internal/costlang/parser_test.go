package costlang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disco/internal/stats"
)

// Lex tokenizes src fully; the token stream the lexer tests check.
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		t, err := l.next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`scan(employee) { TotalTime = 120 + C.TotalSize * 12; } // trailing`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokIdent, TokLParen, TokIdent, TokRParen, TokLBrace,
		TokIdent, TokAssign, TokNumber, TokPlus, TokIdent, TokDot, TokIdent,
		TokStar, TokNumber, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexOperatorsAndStrings(t *testing.T) {
	toks, err := Lex(`<= >= <> != == ? "a\"b" 'c' 1.5e3 .5 #comment
/* block
comment */ x`)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokKind{TokLE, TokGE, TokNE, TokNE, TokEQQ, TokQuestion,
		TokString, TokString, TokNumber, TokNumber, TokIdent, TokEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d: %v, want %v (%v)", i, toks[i].Kind, k, toks[i])
		}
	}
	if toks[6].Text != `a"b` || toks[7].Text != "c" {
		t.Errorf("strings = %q %q", toks[6].Text, toks[7].Text)
	}
	if toks[8].Num != 1500 || toks[9].Num != 0.5 {
		t.Errorf("numbers = %v %v", toks[8].Num, toks[9].Num)
	}
}

func TestLexNumberDotIdent(t *testing.T) {
	// "3.Foo" must lex as number 3, dot, ident (path off a literal is
	// nonsense, but the number must not eat the dot).
	toks, err := Lex(`C.TotalSize*25`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[1].Kind != TokDot {
		t.Errorf("path lexing broken: %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `/* unterminated`, `@`, `"bad \q escape"`, `!x`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestParsePaperScanRule(t *testing.T) {
	// The paper's Figure 8 scan rule.
	src := `
scan(employee) {
  TotalTime = 120 + Employee.TotalSize * 12 + Employee.CountObject / Employee.CountDistinct;
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rules) != 1 {
		t.Fatalf("rules = %d", len(f.Rules))
	}
	r := f.Rules[0]
	if r.Op != "scan" || len(r.Args) != 1 || r.Args[0].Ident != "employee" {
		t.Errorf("rule head = %s(%v)", r.Op, r.Args)
	}
	if len(r.Assigns) != 1 || r.Assigns[0].Name != "TotalTime" {
		t.Errorf("assigns = %v", r.Assigns)
	}
}

func TestParsePaperSelectRule(t *testing.T) {
	// The paper's Figure 8 select rule: select(C, A = V) with three
	// formulas.
	src := `
select(C, A = V) {
  CountObject = C.CountObject * selectivity(A, V);
  TotalSize   = CountObject * C.ObjectSize;
  TotalTime   = C.TotalTime + C.TotalSize * 25;
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Rules[0]
	if len(r.Args) != 2 {
		t.Fatalf("args = %v", r.Args)
	}
	cmp := r.Args[1].Cmp
	if cmp == nil || cmp.Attr != "A" || cmp.Op != stats.CmpEQ || cmp.Value.Ident != "V" {
		t.Fatalf("head comparison = %v", r.Args[1])
	}
	if len(r.Assigns) != 3 {
		t.Errorf("assigns = %d", len(r.Assigns))
	}
	// Round-trip through String and re-parse.
	f2, err := Parse(f.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, f.String())
	}
	if len(f2.Rules) != 1 || len(f2.Rules[0].Assigns) != 3 {
		t.Errorf("round-trip lost content: %s", f2)
	}
}

func TestParseYaoRule(t *testing.T) {
	// The paper's Figure 13 rule, with a local let for CountPage.
	src := `
let PageSize = 4096;
let IO = 25;
let Output = 9;

select(Collection, Id = value) {
  let CountPage = Collection.TotalSize / PageSize;
  CountObject = Collection.CountObject * (value - Collection.Id.Min) / (Collection.Id.Max - Collection.Id.Min);
  TotalSize   = CountObject * Collection.ObjectSize;
  TotalTime   = IO * CountPage * (1 - exp(-1 * (CountObject / CountPage))) + CountObject * Output;
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Lets) != 3 {
		t.Errorf("global lets = %d", len(f.Lets))
	}
	r := f.Rules[0]
	if len(r.Lets) != 1 || r.Lets[0].Name != "CountPage" {
		t.Errorf("rule lets = %v", r.Lets)
	}
	// The deep path Collection.Id.Min must parse as a 3-segment PathRef.
	found := false
	for _, a := range r.Assigns {
		if strings.Contains(a.Expr.String(), "Collection.Id.Min") {
			found = true
		}
	}
	if !found {
		t.Error("3-segment path not preserved")
	}
}

func TestParseDefFunction(t *testing.T) {
	src := `
def selectivity(a, v) = 1 / CountDistinct;
scan(C) { TotalTime = selectivity(1, 2) * 100; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 1 || f.Funcs[0].Name != "selectivity" || len(f.Funcs[0].Params) != 2 {
		t.Errorf("funcs = %v", f.Funcs)
	}
}

func TestParseForcedVariables(t *testing.T) {
	src := `select(?employee, ?attr = ?v) { TotalTime = 1; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Rules[0]
	if !r.Args[0].Forced {
		t.Error("collection should be forced variable")
	}
	if !r.Args[1].Cmp.AttrForced || !r.Args[1].Cmp.Value.Forced {
		t.Error("attr and value should be forced variables")
	}
}

func TestParseHeadValueKinds(t *testing.T) {
	src := `
select(C, salary = 77) { TotalTime = 1; }
select(C, name = "Adiba") { TotalTime = 2; }
select(C, delta = -5) { TotalTime = 3; }
select(C, salary > V) { TotalTime = 4; }
select(C, salary <> 0) { TotalTime = 5; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rules[0].Args[1].Cmp.Value.Const.AsInt() != 77 {
		t.Error("int head value")
	}
	if f.Rules[1].Args[1].Cmp.Value.Const.AsString() != "Adiba" {
		t.Error("string head value")
	}
	if f.Rules[2].Args[1].Cmp.Value.Const.AsInt() != -5 {
		t.Error("negative head value")
	}
	if f.Rules[3].Args[1].Cmp.Op != stats.CmpGT {
		t.Error("GT head comparison")
	}
	if f.Rules[4].Args[1].Cmp.Op != stats.CmpNE {
		t.Error("NE head comparison")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`scan(C) { Bogus = 1; }`,            // not a result var
		`scan(C) { }`,                       // no assignments
		`scan(C) { TotalTime = ; }`,         // missing expr
		`scan(C { TotalTime = 1; }`,         // missing close paren
		`scan(C) TotalTime = 1;`,            // missing brace
		`let x 5;`,                          // missing =
		`def f(x) = ;`,                      // missing body
		`scan(C) { TotalTime = 1 + ; }`,     // dangling operator
		`scan(C) { TotalTime = foo(1,; }`,   // bad call
		`scan(C) { TotalTime = (1; }`,       // unbalanced paren
		`select(C, = 5) { TotalTime = 1; }`, // missing attr
		`42`,                                // not a rule
		`scan(C) { TotalTime = C..x; }`,     // empty path segment
		`scan(C) { let TotalTime = 1 }`,     // missing semicolon
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3 - 4 / 2`)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((1 + (2 * 3)) - (4 / 2))" {
		t.Errorf("precedence tree = %s", e)
	}
	e2, err := ParseExpr(`-(1 + 2) * x.y`)
	if err != nil {
		t.Fatal(err)
	}
	if e2.String() != "((-(1 + 2)) * x.y)" {
		t.Errorf("unary tree = %s", e2)
	}
	if _, err := ParseExpr(`1 + 2 extra`); err == nil {
		t.Error("trailing input should fail")
	}
}

func TestCanonicalResultVar(t *testing.T) {
	if CanonicalResultVar("totaltime") != "TotalTime" {
		t.Error("case normalization failed")
	}
	if CanonicalResultVar("zzz") != "zzz" {
		t.Error("unknown names pass through")
	}
	if !IsResultVar("COUNTOBJECT") || IsResultVar("nope") {
		t.Error("IsResultVar")
	}
}

func TestTestdataFilesParse(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected sample .cdl files, found %d", len(entries))
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(string(src))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if len(f.Rules) == 0 {
			t.Errorf("%s: no rules parsed", e.Name())
		}
	}
}
