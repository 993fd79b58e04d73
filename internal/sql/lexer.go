// Package sql implements the global query language front end: a lexer, a
// recursive-descent parser, and the statement AST consumed by the planner.
//
// The dialect is a pragmatic subset of SQL-92: SELECT with joins,
// grouping, HAVING, ORDER BY, LIMIT/OFFSET, UNION [ALL], uncorrelated
// subqueries (EXISTS / IN / scalar), INSERT, UPDATE, DELETE, and EXPLAIN.
package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"gis/internal/expr"
)

// TokenKind classifies lexer output.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokOp    // operators: = <> != < <= > >= + - * / % || . , ( )
	TokParam // ? positional parameter
)

// Token is one lexical unit with its source position (1-based).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// Lexer scans SQL text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// errorf builds a positioned lexical error.
func (l *Lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("lex error at line %d col %d: %s", l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start, line, col := l.pos, l.line, l.col
	tok := func(k TokenKind, text string) Token {
		return Token{Kind: k, Text: text, Pos: start, Line: line, Col: col}
	}
	if l.pos >= len(l.src) {
		return tok(TokEOF, ""), nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.pos]
		if up, ok := keyword(word); ok {
			return tok(TokKeyword, up), nil
		}
		return tok(TokIdent, word), nil

	case c == '"': // quoted identifier
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errorf("unterminated quoted identifier")
			}
			ch := l.advance()
			if ch == '"' {
				if l.peek() == '"' { // escaped quote
					l.advance()
					b.WriteByte('"')
					continue
				}
				break
			}
			b.WriteByte(ch)
		}
		return tok(TokIdent, b.String()), nil

	case c >= '0' && c <= '9':
		return l.lexNumber(tok)

	case c == '.' && l.peek2() >= '0' && l.peek2() <= '9':
		return l.lexNumber(tok)

	case c == '\'':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errorf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '\'' {
				if l.peek() == '\'' { // doubled quote escape
					l.advance()
					b.WriteByte('\'')
					continue
				}
				break
			}
			b.WriteByte(ch)
		}
		return tok(TokString, b.String()), nil

	case c == '?':
		l.advance()
		return tok(TokParam, "?"), nil

	default:
		return l.lexOperator(tok)
	}
}

func (l *Lexer) lexNumber(tok func(TokenKind, string) Token) (Token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c >= '0' && c <= '9':
			l.advance()
		case c == '.' && !isFloat:
			isFloat = true
			l.advance()
		case (c == 'e' || c == 'E') && l.pos > start:
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if isFloat {
		return tok(TokFloat, text), nil
	}
	return tok(TokInt, text), nil
}

// keyword reports whether word is a reserved word in any mix of case,
// and returns its upper-case spelling. It folds the word into a buffer on
// the stack — no keyword is longer, so a longer word is an identifier —
// and allocates only to spell a keyword that was not written in upper
// case.
func keyword(word string) (string, bool) {
	var buf [8]byte // len("DISTINCT"), the longest reserved word
	if len(word) > len(buf) {
		return "", false
	}
	upper := true
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
			upper = false
		}
		buf[i] = c
	}
	if !expr.Reserved(string(buf[:len(word)])) {
		return "", false
	}
	if upper {
		return word, true
	}
	return string(buf[:len(word)]), true
}

// lexOperator scans an operator. Its text is a substring of the source,
// except that != is spelled <>.
func (l *Lexer) lexOperator(tok func(TokenKind, string) Token) (Token, error) {
	start := l.pos
	c := l.advance()
	switch two := l.src[start:min(start+2, len(l.src))]; two {
	case "!=":
		l.advance()
		return tok(TokOp, "<>"), nil
	case "<=", ">=", "<>", "||":
		l.advance()
		return tok(TokOp, two), nil
	}
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
		return tok(TokOp, l.src[start:l.pos]), nil
	}
	// Report the character, not its first byte: é is two. Bytes that are
	// no UTF-8 decode as RuneError, one byte wide.
	if r, size := utf8.DecodeRuneInString(l.src[start:]); (r != utf8.RuneError || size > 1) && unicode.IsPrint(r) {
		return Token{}, l.errorf("unexpected character %q", string(r))
	}
	return Token{}, l.errorf("unexpected byte 0x%02x", c)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// Tokenize scans the whole input, returning every token before EOF.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	// Sized once instead of grown from nil. Statements run about 2.6 to
	// 4.7 bytes a token, so a third of the length holds all but the
	// densest, which still grow.
	out := make([]Token, 0, len(src)/3+4)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
