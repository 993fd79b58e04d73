package sql

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

func TestTokenizeBasic(t *testing.T) {
	toks, err := Tokenize("SELECT a, b FROM t WHERE x >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT a , b FROM t WHERE x >= 1.5"
	if got := texts(toks); got != want {
		t.Errorf("texts = %q, want %q", got, want)
	}
	if toks[0].Kind != TokKeyword || toks[1].Kind != TokIdent || toks[9].Kind != TokFloat {
		t.Errorf("kinds = %v", kinds(toks))
	}
}

func TestTokenizeKeywordCase(t *testing.T) {
	toks, err := Tokenize("select From WHERE")
	if err != nil {
		t.Fatal(err)
	}
	if texts(toks) != "SELECT FROM WHERE" {
		t.Errorf("keywords must be upper-cased: %q", texts(toks))
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, err := Tokenize("'hello' 'it''s' ''")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "hello" || toks[1].Text != "it's" || toks[2].Text != "" {
		t.Errorf("strings = %v", toks)
	}
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
}

func TestTokenizeQuotedIdent(t *testing.T) {
	toks, err := Tokenize(`"Order Table" "x""y"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "Order Table" {
		t.Errorf("quoted ident = %v", toks[0])
	}
	if toks[1].Text != `x"y` {
		t.Errorf("escaped quote = %q", toks[1].Text)
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Error("unterminated quoted identifier must error")
	}
}

func TestTokenizeNumbers(t *testing.T) {
	toks, err := Tokenize("1 42 3.14 .5 1e3 2.5E-2")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokenKind{TokInt, TokInt, TokFloat, TokFloat, TokFloat, TokFloat}
	got := kinds(toks)
	for i, w := range wantKinds {
		if got[i] != w {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text, got[i], w)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("= <> != < <= > >= + - * / % || ( ) , . ;")
	if err != nil {
		t.Fatal(err)
	}
	// != normalizes to <>.
	if toks[2].Text != "<>" {
		t.Errorf("!= should normalize to <>, got %q", toks[2].Text)
	}
	for _, tok := range toks {
		if tok.Kind != TokOp {
			t.Errorf("%q should be TokOp", tok.Text)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("SELECT -- line comment\n a /* block\ncomment */ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if texts(toks) != "SELECT a FROM t" {
		t.Errorf("comments not skipped: %q", texts(toks))
	}
	if _, err := Tokenize("/* unterminated"); err == nil {
		t.Error("unterminated block comment must error")
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("SELECT\n  a")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("token 0 at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("token 1 at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestTokenizeParam(t *testing.T) {
	toks, err := Tokenize("WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	if toks[3].Kind != TokParam {
		t.Errorf("? not lexed as param: %v", toks[3])
	}
}

func TestTokenizeBadByte(t *testing.T) {
	if _, err := Tokenize("SELECT @"); err == nil {
		t.Error("bad character must error")
	}
}

// TestTokenizeKeywordFolding pins the keyword test's stack buffer: any
// mix of case is a keyword and comes back in upper case, and a word
// longer than the longest keyword is an identifier however it starts.
func TestTokenizeKeywordFolding(t *testing.T) {
	id17 := "distinct_customer"
	id64 := strings.Repeat("SelectFr", 8)
	toks, err := Tokenize("SeLeCt dIsTiNcT " + id17 + ", " + id64 + " fRoM distinc, distinctx")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT DISTINCT " + id17 + " , " + id64 + " FROM distinc , distinctx"
	if got := texts(toks); got != want {
		t.Errorf("texts = %q, want %q", got, want)
	}
	wantKinds := []TokenKind{TokKeyword, TokKeyword, TokIdent, TokOp, TokIdent, TokKeyword, TokIdent, TokOp, TokIdent}
	for i, k := range kinds(toks) {
		if k != wantKinds[i] {
			t.Errorf("token %d (%q) has kind %d, want %d", i, toks[i].Text, k, wantKinds[i])
		}
	}
}

// TestTokenizeOperatorsAtEnd: every two-byte operator, and its one-byte
// prefix where that is one, as the last thing in the input.
func TestTokenizeOperatorsAtEnd(t *testing.T) {
	for in, want := range map[string]string{
		"a <=": "<=", "a >=": ">=", "a <>": "<>", "a !=": "<>", "a ||": "||",
		"a <": "<", "a >": ">", "a =": "=", "a<=": "<=", "(": "(",
	} {
		toks, err := Tokenize(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if last := toks[len(toks)-1]; last.Kind != TokOp || last.Text != want {
			t.Errorf("%q: last token %q (kind %d), want operator %q", in, last.Text, last.Kind, want)
		}
	}
	for _, in := range []string{"a !", "a |", "!", "|"} {
		if _, err := Tokenize(in); err == nil {
			t.Errorf("%q must not lex", in)
		}
	}
}

// TestTokenizeUnexpectedCharacter: the error names the character, not
// the first byte of its encoding read as Latin-1.
func TestTokenizeUnexpectedCharacter(t *testing.T) {
	for in, want := range map[string]string{
		"SELECT é FROM t":    `unexpected character "é"`,
		"SELECT §":           `unexpected character "§"`,
		"SELECT a ! b":       `unexpected character "!"`,
		"SELECT \xff":        "unexpected byte 0xff",
		"SELECT \xc3":        "unexpected byte 0xc3", // é cut short
		"SELECT \x00":        "unexpected byte 0x00",
		"SELECT \u00a0 FROM": "unexpected byte 0xc2", // no-break space: valid, not printable
	} {
		_, err := Tokenize(in)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want %q", in, err, want)
		}
	}
}

// TestTokenizeAllocatesItsResult: lexing the benchmark's point_remote
// statements (bench/gen.go) builds the token slice and nothing else — no
// upper-cased copy of a word to look it up, no string per operator. This
// also pins that expr.Reserved(string(buf)) stays an allocation-free map
// index.
func TestTokenizeAllocatesItsResult(t *testing.T) {
	for _, src := range pointRemoteStatements {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Tokenize(src); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("Tokenize allocates %.0f objects, want 1 (its result): %s", n, src)
		}
	}
}
