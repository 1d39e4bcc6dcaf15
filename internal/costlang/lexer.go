// Package costlang implements the cost communication language of paper §3:
// the declarative rule language in which a wrapper exports cost and size
// formulas to the mediator. It provides the lexer, the AST, and the parser
// for the Figure 9 grammar, extended with:
//
//   - all comparison operators in rule-head predicates (the paper grammar
//     has '=' only),
//   - `let name = expr;` wrapper-local constants and per-rule locals
//     (paper §3.3.1 mentions PageSize = 4000),
//   - `def name(args) = expr;` wrapper-defined functions (paper §3.3.2
//     mentions an ad-hoc selectivity(A, V) function),
//   - `?name` to force an identifier to be a free variable regardless of
//     the registered schema (head identifiers are otherwise classified as
//     collection/attribute constants or variables at integration time).
//
// Compilation to bytecode and evaluation live in internal/costvm.
package costlang

import (
	"fmt"
	"strings"
)

// TokKind enumerates lexical token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokComma
	TokSemi
	TokDot
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokLT
	TokLE
	TokGT
	TokGE
	TokNE  // <> or !=
	TokEQQ // == (alias for = in predicate positions)
	TokQuestion
	TokLet
	TokDef
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokComma:
		return "','"
	case TokSemi:
		return "';'"
	case TokDot:
		return "'.'"
	case TokAssign:
		return "'='"
	case TokPlus:
		return "'+'"
	case TokMinus:
		return "'-'"
	case TokStar:
		return "'*'"
	case TokSlash:
		return "'/'"
	case TokLT:
		return "'<'"
	case TokLE:
		return "'<='"
	case TokGT:
		return "'>'"
	case TokGE:
		return "'>='"
	case TokNE:
		return "'<>'"
	case TokEQQ:
		return "'=='"
	case TokQuestion:
		return "'?'"
	case TokLet:
		return "'let'"
	case TokDef:
		return "'def'"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Num  float64
	Line int
	Col  int
}

// Pos renders line:col for error messages.
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }

// lexer scans cost-rule source into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("costlang: %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '#':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.peekByte() == '*' && l.off+1 < len(l.src) && l.src[l.off+1] == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans one token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		tok.Text = l.src[start:l.off]
		switch strings.ToLower(tok.Text) {
		case "let":
			tok.Kind = TokLet
		case "def":
			tok.Kind = TokDef
		default:
			tok.Kind = TokIdent
		}
		return tok, nil

	case isDigit(c) || (c == '.' && l.off+1 < len(l.src) && isDigit(l.src[l.off+1])):
		start := l.off
		seenDot, seenExp := false, false
		for l.off < len(l.src) {
			c := l.peekByte()
			switch {
			case isDigit(c):
				l.advance()
			case c == '.' && !seenDot && !seenExp:
				// Only treat '.' as part of the number when a digit
				// follows, so "3.Foo" lexes as 3 . Foo.
				if l.off+1 < len(l.src) && isDigit(l.src[l.off+1]) {
					seenDot = true
					l.advance()
				} else {
					goto done
				}
			case (c == 'e' || c == 'E') && !seenExp:
				if l.off+1 < len(l.src) && (isDigit(l.src[l.off+1]) ||
					((l.src[l.off+1] == '+' || l.src[l.off+1] == '-') && l.off+2 < len(l.src) && isDigit(l.src[l.off+2]))) {
					seenExp = true
					l.advance()
					if l.peekByte() == '+' || l.peekByte() == '-' {
						l.advance()
					}
				} else {
					goto done
				}
			default:
				goto done
			}
		}
	done:
		tok.Kind = TokNumber
		tok.Text = l.src[start:l.off]
		if _, err := fmt.Sscanf(tok.Text, "%g", &tok.Num); err != nil {
			return tok, l.errf("bad number %q", tok.Text)
		}
		return tok, nil

	case c == '"' || c == '\'':
		quote := l.advance()
		var sb strings.Builder
		for {
			if l.off >= len(l.src) {
				return tok, l.errf("unterminated string")
			}
			ch := l.advance()
			if ch == quote {
				break
			}
			if ch == '\\' && l.off < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"', '\'':
					sb.WriteByte(esc)
				default:
					return tok, l.errf("bad escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		tok.Kind = TokString
		tok.Text = sb.String()
		return tok, nil
	}

	l.advance()
	switch c {
	case '(':
		tok.Kind = TokLParen
	case ')':
		tok.Kind = TokRParen
	case '{':
		tok.Kind = TokLBrace
	case '}':
		tok.Kind = TokRBrace
	case ',':
		tok.Kind = TokComma
	case ';':
		tok.Kind = TokSemi
	case '.':
		tok.Kind = TokDot
	case '+':
		tok.Kind = TokPlus
	case '-':
		tok.Kind = TokMinus
	case '*':
		tok.Kind = TokStar
	case '/':
		tok.Kind = TokSlash
	case '?':
		tok.Kind = TokQuestion
	case '=':
		if l.peekByte() == '=' {
			l.advance()
			tok.Kind = TokEQQ
		} else {
			tok.Kind = TokAssign
		}
	case '<':
		switch l.peekByte() {
		case '=':
			l.advance()
			tok.Kind = TokLE
		case '>':
			l.advance()
			tok.Kind = TokNE
		default:
			tok.Kind = TokLT
		}
	case '>':
		if l.peekByte() == '=' {
			l.advance()
			tok.Kind = TokGE
		} else {
			tok.Kind = TokGT
		}
	case '!':
		if l.peekByte() == '=' {
			l.advance()
			tok.Kind = TokNE
		} else {
			return tok, l.errf("unexpected '!'")
		}
	default:
		return tok, l.errf("unexpected character %q", string(c))
	}
	tok.Text = tok.Kind.String()
	return tok, nil
}
