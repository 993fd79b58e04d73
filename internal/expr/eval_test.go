package expr

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gis/internal/types"
)

var testSchema = types.NewSchema(
	types.Column{Table: "t", Name: "a", Type: types.KindInt},
	types.Column{Table: "t", Name: "b", Type: types.KindFloat},
	types.Column{Table: "t", Name: "s", Type: types.KindString},
	types.Column{Table: "t", Name: "flag", Type: types.KindBool},
	types.Column{Table: "t", Name: "ts", Type: types.KindTime},
	types.Column{Table: "t", Name: "n", Type: types.KindInt, Nullable: true},
)

var testRow = types.Row{
	types.NewInt(10),
	types.NewFloat(2.5),
	types.NewString("hello"),
	types.NewBool(true),
	types.NewTime(time.Date(2021, 3, 14, 0, 0, 0, 0, time.UTC)),
	types.Null,
}

// mustBind binds and fails the test on error.
func mustBind(t *testing.T, e Expr) Expr {
	t.Helper()
	b, err := Bind(e, testSchema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	return b
}

// evalStr evaluates a bound expression on testRow and returns the display
// string of the result.
func evalStr(t *testing.T, e Expr) string {
	t.Helper()
	v, err := e.Eval(testRow)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v.String()
}

func col(name string) *ColRef         { return NewColRef("", name) }
func intc(i int64) *Const             { return NewConst(types.NewInt(i)) }
func floatc(f float64) *Const         { return NewConst(types.NewFloat(f)) }
func strc(s string) *Const            { return NewConst(types.NewString(s)) }
func boolc(b bool) *Const             { return NewConst(types.NewBool(b)) }
func bin(op BinOp, l, r Expr) *Binary { return NewBinary(op, l, r) }

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{bin(OpAdd, col("a"), intc(5)), "15"},
		{bin(OpSub, col("a"), intc(3)), "7"},
		{bin(OpMul, col("a"), col("b")), "25"},
		{bin(OpDiv, col("a"), intc(3)), "3"},     // integer division
		{bin(OpDiv, col("a"), floatc(4)), "2.5"}, // float promotion
		{bin(OpMod, col("a"), intc(3)), "1"},
		{NewUnary(OpNeg, col("a")), "-10"},
		{bin(OpAdd, col("n"), intc(1)), "NULL"}, // NULL propagates
	}
	for _, c := range cases {
		if got := evalStr(t, mustBind(t, c.e)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	e := mustBind(t, bin(OpDiv, col("a"), intc(0)))
	if _, err := e.Eval(testRow); err == nil {
		t.Error("integer division by zero must error")
	}
	e = mustBind(t, bin(OpMod, col("b"), floatc(0)))
	if _, err := e.Eval(testRow); err == nil {
		t.Error("float modulo by zero must error")
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{bin(OpEq, col("a"), intc(10)), "true"},
		{bin(OpNe, col("a"), intc(10)), "false"},
		{bin(OpLt, col("b"), intc(3)), "true"},
		{bin(OpGe, col("a"), floatc(10.0)), "true"},
		{bin(OpGt, col("s"), strc("abc")), "true"},
		{bin(OpEq, col("n"), intc(1)), "NULL"},
		{bin(OpEq, col("n"), NewConst(types.Null)), "NULL"}, // NULL = NULL is NULL
	}
	for _, c := range cases {
		if got := evalStr(t, mustBind(t, c.e)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := bin(OpEq, col("n"), intc(1)) // evaluates to NULL
	cases := []struct {
		e    Expr
		want string
	}{
		{bin(OpAnd, boolc(true), boolc(false)), "false"},
		{bin(OpAnd, null, boolc(false)), "false"},
		{bin(OpAnd, boolc(false), null), "false"},
		{bin(OpAnd, null, boolc(true)), "NULL"},
		{bin(OpOr, null, boolc(true)), "true"},
		{bin(OpOr, boolc(true), null), "true"},
		{bin(OpOr, null, boolc(false)), "NULL"},
		{bin(OpOr, null, null), "NULL"},
		{NewUnary(OpNot, boolc(false)), "true"},
		{NewUnary(OpNot, null), "NULL"},
	}
	for _, c := range cases {
		if got := evalStr(t, mustBind(t, c.e)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abcdef", "a%c%f", true},
		{"abcdef", "a%x%f", false},
	}
	for _, c := range cases {
		e := mustBind(t, bin(OpLike, strc(c.s), strc(c.p)))
		v, err := e.Eval(nil)
		if err != nil {
			t.Fatalf("LIKE: %v", err)
		}
		if v.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.Bool(), c.want)
		}
	}
}

func TestConcatOperator(t *testing.T) {
	e := mustBind(t, bin(OpConcat, col("s"), strc("!")))
	if got := evalStr(t, e); got != "hello!" {
		t.Errorf("|| = %q", got)
	}
	// NULL || x is NULL (operator, unlike CONCAT function).
	e = mustBind(t, bin(OpConcat, col("n"), strc("!")))
	if got := evalStr(t, e); got != "NULL" {
		t.Errorf("NULL || x = %q, want NULL", got)
	}
}

func TestIsNull(t *testing.T) {
	e := mustBind(t, &IsNull{E: col("n")})
	if got := evalStr(t, e); got != "true" {
		t.Errorf("n IS NULL = %s", got)
	}
	e = mustBind(t, &IsNull{E: col("a"), Negate: true})
	if got := evalStr(t, e); got != "true" {
		t.Errorf("a IS NOT NULL = %s", got)
	}
}

func TestInList(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&InList{E: col("a"), List: []Expr{intc(1), intc(10)}}, "true"},
		{&InList{E: col("a"), List: []Expr{intc(1), intc(2)}}, "false"},
		{&InList{E: col("a"), List: []Expr{intc(1), NewConst(types.Null)}}, "NULL"},
		{&InList{E: col("a"), List: []Expr{intc(10), NewConst(types.Null)}}, "true"},
		{&InList{E: col("n"), List: []Expr{intc(1)}}, "NULL"},
		{&InList{E: col("a"), List: []Expr{intc(1)}, Negate: true}, "true"},
		{&InList{E: col("a"), List: []Expr{intc(10)}, Negate: true}, "false"},
	}
	for _, c := range cases {
		if got := evalStr(t, mustBind(t, c.e)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

// TestInListSet: a list of eight or more constants is probed through its
// set — one allocation, built once — and answers what the linear scan
// does: INT and FLOAT meet, duplicates are harmless, a NULL entry turns a
// miss into NULL.
func TestInListSet(t *testing.T) {
	list := func(extra ...Expr) []Expr {
		l := []Expr{intc(3), floatc(7), intc(3), intc(40), intc(-2), intc(11), floatc(12.5), intc(13)}
		return append(l, extra...)
	}
	for _, c := range []struct {
		v    types.Value
		list []Expr
		want string
	}{
		{types.NewInt(7), list(), "true"},
		{types.NewFloat(3), list(), "true"},
		{types.NewFloat(12.5), list(), "true"},
		{types.NewInt(12), list(), "false"},
		{types.NewInt(12), list(NewConst(types.Null)), "NULL"},
		{types.NewInt(40), list(NewConst(types.Null)), "true"},
		{types.Null, list(), "NULL"},
	} {
		for _, negate := range []bool{false, true} {
			e := &InList{E: NewBoundColRef(0, c.v.Kind(), "v"), List: c.list, Negate: negate}
			got, err := e.Eval(types.Row{c.v})
			if err != nil {
				t.Fatal(err)
			}
			want := c.want
			if negate && want != "NULL" {
				want = map[string]string{"true": "false", "false": "true"}[want]
			}
			if got.String() != want || e.set == nil && !c.v.IsNull() {
				t.Errorf("%s with %s = %s (set built: %v), want %s", e, c.v, got, e.set != nil, want)
			}
		}
	}
	nodes := make([]*InList, 11)
	for i := range nodes {
		nodes[i] = &InList{E: col("a"), List: list(NewConst(types.Null))}
	}
	i := 0
	if n := testing.AllocsPerRun(10, func() { nodes[i].buildSet(); i++ }); n != 1 {
		t.Errorf("building an IN list's set allocates %.0f objects, want 1", n)
	}
}

func TestCase(t *testing.T) {
	// Searched CASE.
	e := mustBind(t, &Case{
		Whens: []When{
			{Cond: bin(OpGt, col("a"), intc(100)), Then: strc("big")},
			{Cond: bin(OpGt, col("a"), intc(5)), Then: strc("mid")},
		},
		Else: strc("small"),
	})
	if got := evalStr(t, e); got != "mid" {
		t.Errorf("searched CASE = %s", got)
	}
	// Operand CASE.
	e = mustBind(t, &Case{
		Operand: col("a"),
		Whens:   []When{{Cond: intc(10), Then: strc("ten")}},
	})
	if got := evalStr(t, e); got != "ten" {
		t.Errorf("operand CASE = %s", got)
	}
	// No match, no ELSE → NULL.
	e = mustBind(t, &Case{
		Operand: col("a"),
		Whens:   []When{{Cond: intc(11), Then: strc("x")}},
	})
	if got := evalStr(t, e); got != "NULL" {
		t.Errorf("CASE fallthrough = %s", got)
	}
	// Mixed int/float branches unify to FLOAT.
	e = mustBind(t, &Case{
		Whens: []When{{Cond: boolc(true), Then: intc(1)}},
		Else:  floatc(2.5),
	})
	if e.ResultType() != types.KindFloat {
		t.Errorf("CASE type = %s, want FLOAT", e.ResultType())
	}
	if got := evalStr(t, e); got != "1" {
		t.Errorf("CASE coerced = %s", got)
	}
}

func TestCast(t *testing.T) {
	e := mustBind(t, &Cast{E: col("a"), To: types.KindString})
	if got := evalStr(t, e); got != "10" {
		t.Errorf("CAST = %s", got)
	}
	e = mustBind(t, &Cast{E: strc("2.5"), To: types.KindFloat})
	if got := evalStr(t, e); got != "2.5" {
		t.Errorf("CAST = %s", got)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NewCall("abs", NewUnary(OpNeg, col("a"))), "10"},
		{NewCall("ABS", floatc(-2.5)), "2.5"},
		{NewCall("CEIL", floatc(1.2)), "2"},
		{NewCall("FLOOR", floatc(1.8)), "1"},
		{NewCall("ROUND", floatc(1.25), intc(1)), "1.3"},
		{NewCall("SQRT", intc(16)), "4"},
		{NewCall("POW", intc(2), intc(10)), "1024"},
		{NewCall("LOWER", strc("HeLLo")), "hello"},
		{NewCall("UPPER", col("s")), "HELLO"},
		{NewCall("LENGTH", col("s")), "5"},
		{NewCall("TRIM", strc("  x ")), "x"},
		{NewCall("SUBSTR", col("s"), intc(2), intc(3)), "ell"},
		{NewCall("SUBSTR", col("s"), intc(3)), "llo"},
		{NewCall("REPLACE", col("s"), strc("l"), strc("L")), "heLLo"},
		{NewCall("CONCAT", col("s"), col("n"), strc("!")), "hello!"},
		{NewCall("COALESCE", col("n"), intc(7)), "7"},
		{NewCall("COALESCE", col("a"), intc(7)), "10"},
		{NewCall("NULLIF", col("a"), intc(10)), "NULL"},
		{NewCall("NULLIF", col("a"), intc(11)), "10"},
		{NewCall("YEAR", col("ts")), "2021"},
		{NewCall("MONTH", col("ts")), "3"},
		{NewCall("DAY", col("ts")), "14"},
		{NewCall("LOWER", col("n")), "NULL"}, // null propagation
	}
	for _, c := range cases {
		if got := evalStr(t, mustBind(t, c.e)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestBindErrors(t *testing.T) {
	bad := []Expr{
		col("nope"),
		NewCall("NOSUCHFN", intc(1)),
		NewCall("ABS"),                                           // too few args
		NewCall("ABS", intc(1), intc(2)),                         // too many args
		NewCall("ABS", strc("x")),                                // non-numeric
		bin(OpAdd, col("s"), intc(1)),                            // string + int
		bin(OpEq, col("s"), intc(1)),                             // string = int
		bin(OpLike, col("a"), strc("%")),                         // LIKE over int
		NewUnary(OpNeg, col("s")),                                // negate string
		&InList{E: col("a"), List: []Expr{strc("10"), intc(11)}}, // int IN (string, ...)
		&InList{E: col("a"), List: []Expr{intc(11), strc("10")}, Negate: true}, // int NOT IN (..., string)
		NewUnary(OpNot, col("a")),                                                 // NOT int
		&Case{Whens: []When{{Cond: col("a"), Then: intc(1)}}},                     // WHEN int THEN
		&Case{Operand: col("a"), Whens: []When{{Cond: strc("x"), Then: intc(1)}}}, // CASE int WHEN string
	}
	for _, e := range bad {
		if _, err := Bind(e, testSchema); err == nil {
			t.Errorf("Bind(%s) should fail", e)
		}
	}
}

func TestBindQualified(t *testing.T) {
	e, err := Bind(NewColRef("t", "a"), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*ColRef).Index != 0 || e.ResultType() != types.KindInt {
		t.Errorf("bound ref = %+v", e)
	}
	if _, err := Bind(NewColRef("u", "a"), testSchema); err == nil {
		t.Error("wrong qualifier must fail")
	}
}

// TestBindPositions: a reference that arrives with a position keeps it
// whatever it is called, loses the name, and takes the schema's type; an
// unbound one is resolved by name as Bind does; calls get their function.
func TestBindPositions(t *testing.T) {
	shipped := func() Expr {
		return bin(OpAnd,
			bin(OpEq, &ColRef{Name: "globally_named", Index: 2, Type: types.KindInt}, strc("x")),
			bin(OpGt, &Call{Name: "ABS", Args: []Expr{col("b")}}, intc(1)))
	}
	in := shipped()
	e, err := BindPositions(in, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if e != in {
		t.Error("BindPositions must bind the tree it is handed, in place")
	}
	if got := e.String(); got != "(($2 = 'x') AND (ABS(b) > 1))" {
		t.Errorf("bound = %s", got)
	}
	ref := e.(*Binary).L.(*Binary).L.(*ColRef)
	if ref.Index != 2 || ref.Type != types.KindString || ref.Name != "" {
		t.Errorf("positional ref = %+v, want position 2 typed by the schema and nameless", ref)
	}
	if ok, err := EvalBool(e, types.Row{types.Null, types.NewFloat(-2), types.NewString("x")}); err != nil || !ok {
		t.Errorf("eval = %v, %v", ok, err)
	}
	if _, err := Bind(shipped(), testSchema); err == nil {
		t.Error("Bind resolves by name and must not know globally_named")
	}
	if _, err := BindPositions(&ColRef{Name: "a", Index: 9}, testSchema); err == nil {
		t.Error("a position past the schema must fail")
	}
	if e, err := BindPositions(nil, testSchema); e != nil || err != nil {
		t.Errorf("BindPositions(nil) = %v, %v", e, err)
	}
}

func TestEvalBool(t *testing.T) {
	e := mustBind(t, bin(OpGt, col("a"), intc(5)))
	ok, err := EvalBool(e, testRow)
	if err != nil || !ok {
		t.Errorf("EvalBool = %v,%v", ok, err)
	}
	// NULL predicate rejects.
	e = mustBind(t, bin(OpGt, col("n"), intc(5)))
	ok, err = EvalBool(e, testRow)
	if err != nil || ok {
		t.Errorf("EvalBool(NULL) = %v,%v; want false,nil", ok, err)
	}
}

// Property: likeMatch with pattern == s always matches when s has no
// metacharacters.
func TestLikeSelfMatchProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		return likeMatch(s, s) && likeMatch(s, "%") && likeMatch(s, s+"%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer addition via the expression engine agrees with Go.
func TestAddProperty(t *testing.T) {
	f := func(a, b int32) bool {
		e, err := Bind(bin(OpAdd, intc(int64(a)), intc(int64(b))), testSchema)
		if err != nil {
			return false
		}
		v, err := e.Eval(nil)
		return err == nil && v.Int() == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBoundEvalAllocsDoNotGrowPerRow: evaluating a bound expression —
// arithmetic, comparison, LIKE, three-valued AND/OR over int, float,
// string and nullable columns — over n more rows costs at most n/32 more
// allocations. Values are returned by value, so it should cost none.
func TestBoundEvalAllocsDoNotGrowPerRow(t *testing.T) {
	const n = 4096
	rows := make([]types.Row, 2*n)
	for i := range rows {
		r := testRow.Clone()
		r[0], r[1] = types.NewInt(int64(i)), types.NewFloat(float64(i)/3)
		if i%5 == 0 {
			r[5] = types.NewInt(int64(i))
		}
		rows[i] = r
	}
	e := mustBind(t, bin(OpOr,
		bin(OpAnd, bin(OpGt, bin(OpAdd, bin(OpMul, col("a"), intc(2)), col("b")), floatc(100)), bin(OpLike, col("s"), strc("he%"))),
		bin(OpLt, col("n"), intc(50))))
	eval := func(n int) {
		for _, r := range rows[:n] {
			if _, err := EvalBool(e, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	at := func(n int) float64 { return testing.AllocsPerRun(5, func() { eval(n) }) }
	slope := at(2*n) - at(n)
	t.Logf("bound eval: %v more allocations for %d more rows", slope, n)
	if slope > n/32 {
		t.Errorf("bound evaluation allocates per row: %v more allocations for %d more rows (bound %d)", slope, n, n/32)
	}
}
