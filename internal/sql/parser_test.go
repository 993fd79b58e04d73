package sql

import (
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

// roundTrip parses src and checks the AST renders to want (or to src when
// want is empty). Rendering is the parser's canonical form.
func roundTrip(t *testing.T, src, want string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if want == "" {
		want = src
	}
	if got := stmt.String(); got != want {
		t.Errorf("Parse(%q).String() = %q, want %q", src, got, want)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := roundTrip(t, "SELECT a, b FROM t WHERE (a > 1)", "")
	sel := stmt.(*SelectStmt)
	if len(sel.Items) != 2 || sel.Where == nil {
		t.Errorf("sel = %+v", sel)
	}
}

func TestParseStar(t *testing.T) {
	sel := roundTrip(t, "SELECT * FROM t", "").(*SelectStmt)
	if !sel.Items[0].Star {
		t.Error("star item not parsed")
	}
	sel = roundTrip(t, "SELECT t.* FROM t", "").(*SelectStmt)
	if !sel.Items[0].Star || sel.Items[0].StarTable != "t" {
		t.Error("qualified star not parsed")
	}
}

func TestParseAliases(t *testing.T) {
	sel := roundTrip(t, "SELECT a AS x, b y FROM t AS u", "SELECT a AS x, b AS y FROM t AS u").(*SelectStmt)
	if sel.Items[0].Alias != "x" || sel.Items[1].Alias != "y" {
		t.Errorf("aliases = %+v", sel.Items)
	}
	ref := sel.From.(*TableRef)
	if ref.Name != "t" || ref.Alias != "u" || ref.Binding() != "u" {
		t.Errorf("table ref = %+v", ref)
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := map[string]string{
		"SELECT 1 + 2 * 3":                      "SELECT (1 + (2 * 3))",
		"SELECT (1 + 2) * 3":                    "SELECT ((1 + 2) * 3)",
		"SELECT a OR b AND c":                   "SELECT (a OR (b AND c))",
		"SELECT NOT a = 1":                      "SELECT (NOT (a = 1))",
		"SELECT a = 1 AND b = 2":                "SELECT ((a = 1) AND (b = 2))",
		"SELECT a + 1 > b - 2":                  "SELECT ((a + 1) > (b - 2))",
		"SELECT -a + 2":                         "SELECT ((-a) + 2)",
		"SELECT a || b || c":                    "SELECT ((a || b) || c)",
		"SELECT a BETWEEN 1 AND 2":              "SELECT ((a >= 1) AND (a <= 2))",
		"SELECT a NOT BETWEEN 1 AND 2 AND TRUE": "SELECT ((NOT ((a >= 1) AND (a <= 2))) AND true)",
	}
	for src, want := range cases {
		roundTrip(t, src, want)
	}
}

func TestParseLiterals(t *testing.T) {
	sel := roundTrip(t, "SELECT 1, 2.5, 'x', NULL, TRUE, FALSE", "SELECT 1, 2.5, 'x', NULL, true, false").(*SelectStmt)
	kindsWant := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindNull, types.KindBool, types.KindBool}
	for i, it := range sel.Items {
		c := it.Expr.(*expr.Const)
		if c.Val.Kind() != kindsWant[i] {
			t.Errorf("item %d kind %v, want %v", i, c.Val.Kind(), kindsWant[i])
		}
	}
	// Negative literal folding.
	sel = roundTrip(t, "SELECT -3, -2.5", "SELECT -3, -2.5").(*SelectStmt)
	if c := sel.Items[0].Expr.(*expr.Const); c.Val.Int() != -3 {
		t.Errorf("negative literal = %v", c.Val)
	}
}

func TestParseJoins(t *testing.T) {
	sel := roundTrip(t,
		"SELECT a FROM r JOIN s ON (r.id = s.id) LEFT JOIN u ON (s.k = u.k)", "").(*SelectStmt)
	outer := sel.From.(*JoinExpr)
	if outer.Kind != JoinLeft {
		t.Errorf("outer join kind = %v", outer.Kind)
	}
	inner := outer.L.(*JoinExpr)
	if inner.Kind != JoinInner || inner.On == nil {
		t.Errorf("inner join = %+v", inner)
	}
	// INNER JOIN spelling and comma cross join.
	roundTrip(t, "SELECT a FROM r INNER JOIN s ON (r.id = s.id)",
		"SELECT a FROM r JOIN s ON (r.id = s.id)")
	sel = roundTrip(t, "SELECT a FROM r, s", "SELECT a FROM r CROSS JOIN s").(*SelectStmt)
	if sel.From.(*JoinExpr).Kind != JoinCross {
		t.Error("comma should parse as cross join")
	}
	roundTrip(t, "SELECT a FROM r CROSS JOIN s", "")
}

func TestParseDerivedTable(t *testing.T) {
	sel := roundTrip(t,
		"SELECT x FROM (SELECT a AS x FROM t) AS d WHERE (x > 1)", "").(*SelectStmt)
	sub := sel.From.(*SubqueryTable)
	if sub.Alias != "d" || len(sub.Select.Items) != 1 {
		t.Errorf("derived table = %+v", sub)
	}
	if _, err := Parse("SELECT x FROM (SELECT a FROM t)"); err == nil {
		t.Error("derived table without alias must error")
	}
}

func TestParseGroupHaving(t *testing.T) {
	sel := roundTrip(t,
		"SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING (COUNT(*) > 3)", "").(*SelectStmt)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Errorf("group/having = %+v", sel)
	}
	agg := sel.Items[1].Expr.(*expr.AggCall)
	if agg.Kind != expr.AggCount || agg.Arg != nil {
		t.Errorf("COUNT(*) = %+v", agg)
	}
}

func TestParseAggregates(t *testing.T) {
	sel := roundTrip(t, "SELECT SUM(x), AVG(DISTINCT y), MIN(z), MAX(z), COUNT(x) FROM t", "").(*SelectStmt)
	a := sel.Items[1].Expr.(*expr.AggCall)
	if !a.Distinct || a.Kind != expr.AggAvg {
		t.Errorf("AVG(DISTINCT y) = %+v", a)
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Error("SUM(*) must error")
	}
}

func TestParseOrderLimit(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5",
		"SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5").(*SelectStmt)
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 || sel.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", sel.Limit, sel.Offset)
	}
}

func TestParseUnion(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a", "").(*SelectStmt)
	if sel.Union == nil || !sel.UnionAll {
		t.Fatalf("union = %+v", sel)
	}
	if len(sel.OrderBy) != 1 || len(sel.Union.OrderBy) != 0 {
		t.Error("ORDER BY must attach to the union head")
	}
	sel = roundTrip(t, "SELECT a FROM t UNION SELECT a FROM u", "").(*SelectStmt)
	if sel.UnionAll {
		t.Error("plain UNION must not be ALL")
	}
}

func TestParseDistinct(t *testing.T) {
	sel := roundTrip(t, "SELECT DISTINCT a FROM t", "").(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT not parsed")
	}
}

func TestParseInSubquery(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	sub := stmt.(*SelectStmt).Where.(*expr.Subquery)
	if sub.Mode != expr.SubIn || sub.Negate || sub.Operand == nil {
		t.Errorf("IN subquery = %+v", sub)
	}
	if _, ok := sub.Stmt.(*SelectStmt); !ok {
		t.Error("subquery Stmt is not a SelectStmt")
	}
	stmt, err = Parse("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*SelectStmt).Where.(*expr.Subquery).Negate {
		t.Error("NOT IN must negate")
	}
}

func TestParseExistsAndScalarSubquery(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*SelectStmt).Where.(*expr.Subquery).Mode != expr.SubExists {
		t.Error("EXISTS mode wrong")
	}
	stmt, err = Parse("SELECT a FROM t WHERE a > (SELECT MAX(b) FROM u)")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.(*SelectStmt).Where.(*expr.Binary)
	if cmp.R.(*expr.Subquery).Mode != expr.SubScalar {
		t.Error("scalar subquery mode wrong")
	}
}

func TestParseInList(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	in := stmt.(*SelectStmt).Where.(*expr.InList)
	if len(in.List) != 3 || in.Negate {
		t.Errorf("IN list = %+v", in)
	}
}

func TestParseCaseCastCalls(t *testing.T) {
	roundTrip(t, "SELECT CASE WHEN (a > 1) THEN 'big' ELSE 'small' END FROM t", "")
	roundTrip(t, "SELECT CASE a WHEN 1 THEN 'one' END FROM t", "")
	roundTrip(t, "SELECT CAST(a AS STRING) FROM t", "")
	roundTrip(t, "SELECT SUBSTR(s, 1, 2) FROM t", "")
	if _, err := Parse("SELECT CASE END FROM t"); err == nil {
		t.Error("empty CASE must error")
	}
	if _, err := Parse("SELECT CAST(a AS frobnicate) FROM t"); err == nil {
		t.Error("unknown CAST type must error")
	}
}

func TestParseLikeAndNot(t *testing.T) {
	roundTrip(t, "SELECT a FROM t WHERE (s LIKE 'a%')", "")
	roundTrip(t, "SELECT a FROM t WHERE s NOT LIKE 'a%'",
		"SELECT a FROM t WHERE (NOT (s LIKE 'a%'))")
	roundTrip(t, "SELECT a FROM t WHERE (s IS NULL)", "")
	roundTrip(t, "SELECT a FROM t WHERE (s IS NOT NULL)", "")
	roundTrip(t, "SELECT a FROM t WHERE a NOT IN (1)",
		"SELECT a FROM t WHERE (a NOT IN (1))")
}

func TestParseInsert(t *testing.T) {
	stmt := roundTrip(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", "")
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	roundTrip(t, "INSERT INTO t VALUES (1)", "")
}

func TestParseUpdate(t *testing.T) {
	stmt := roundTrip(t, "UPDATE t SET a = (a + 1), b = 'x' WHERE (id = 3)", "")
	upd := stmt.(*UpdateStmt)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update = %+v", upd)
	}
	roundTrip(t, "UPDATE t SET a = 1", "")
}

func TestParseDelete(t *testing.T) {
	stmt := roundTrip(t, "DELETE FROM t WHERE (id = 3)", "")
	if stmt.(*DeleteStmt).Table != "t" {
		t.Error("delete table wrong")
	}
	roundTrip(t, "DELETE FROM t", "")
}

func TestParseExplain(t *testing.T) {
	stmt := roundTrip(t, "EXPLAIN SELECT a FROM t", "")
	if _, ok := stmt.(*ExplainStmt).Stmt.(*SelectStmt); !ok {
		t.Error("EXPLAIN inner statement wrong")
	}
}

func TestParseParams(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a = ? AND s = ?",
		types.NewInt(5), types.NewString("x"))
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT a FROM t WHERE ((a = 5) AND (s = 'x'))"
	if stmt.String() != want {
		t.Errorf("params = %q, want %q", stmt.String(), want)
	}
	if _, err := Parse("SELECT ? "); err == nil {
		t.Error("missing param value must error")
	}
	if _, err := Parse("SELECT 1", types.NewInt(1)); err == nil {
		t.Error("surplus param must error")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB x",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t LIMIT x",
		"SELECT a b c FROM t",
		"INSERT INTO t",
		"UPDATE t",
		"DELETE t",
		"SELECT a FROM t JOIN u", // missing ON
		"SELECT (a FROM t",
		"SELECT a FROM t; SELECT b FROM u", // trailing content
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	for _, src := range bad {
		if _, err := Parse(src); err != nil && !strings.Contains(err.Error(), "error") {
			t.Errorf("Parse(%q) error %q lacks context", src, err)
		}
	}
}

func TestParseSelectHelper(t *testing.T) {
	if _, err := ParseSelect("SELECT 1"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSelect("DELETE FROM t"); err == nil {
		t.Error("ParseSelect must reject non-SELECT")
	}
}

func TestParseSemicolon(t *testing.T) {
	roundTrip(t, "SELECT 1;", "SELECT 1")
}

func TestParseQualifiedColumns(t *testing.T) {
	stmt, err := Parse("SELECT t.a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ref := stmt.(*SelectStmt).Items[0].Expr.(*expr.ColRef)
	if ref.Table != "t" || ref.Name != "a" {
		t.Errorf("qualified ref = %+v", ref)
	}
}

func TestParseRightJoin(t *testing.T) {
	sel := roundTrip(t, "SELECT a FROM r RIGHT JOIN s ON (r.id = s.id)", "").(*SelectStmt)
	if sel.From.(*JoinExpr).Kind != JoinRight {
		t.Error("RIGHT JOIN kind wrong")
	}
	roundTrip(t, "SELECT a FROM r RIGHT OUTER JOIN s ON (r.id = s.id)",
		"SELECT a FROM r RIGHT JOIN s ON (r.id = s.id)")
}

// TestParseIdempotence: rendering a parsed statement and re-parsing it
// reproduces the same rendering (the canonical form is a fixed point).
func TestParseIdempotence(t *testing.T) {
	corpus := []string{
		"SELECT * FROM t",
		"SELECT DISTINCT a, b + 1 AS c FROM t WHERE a IN (1, 2) ORDER BY c DESC LIMIT 3 OFFSET 1",
		"SELECT t.a, u.b FROM t JOIN u ON t.id = u.id LEFT JOIN v ON u.k = v.k WHERE t.a LIKE 'x%'",
		"SELECT a FROM r RIGHT JOIN s ON r.id = s.id",
		"SELECT region, COUNT(*), SUM(x) FROM t GROUP BY region HAVING COUNT(*) > 2",
		"SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v",
		"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT CAST(a AS FLOAT), COALESCE(b, 0) FROM t",
		"SELECT x FROM (SELECT a AS x FROM t WHERE a IS NOT NULL) AS d",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE x = 1)",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b NOT LIKE '%z'",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = a + 1, b = 'y' WHERE a < 10",
		"DELETE FROM t WHERE a IN (SELECT b FROM u)",
		"EXPLAIN SELECT a FROM t",
	}
	for _, src := range corpus {
		first, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		canonical := first.String()
		second, err := Parse(canonical)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", canonical, err)
		}
		if second.String() != canonical {
			t.Errorf("not a fixed point:\n 1st %q\n 2nd %q", canonical, second.String())
		}
	}
}

// TestDepthBound: a statement whose tree would be deeper than maxDepth
// is a clean error however the depth is written — the recursive walks
// downstream would otherwise overflow the goroutine stack, which no
// recover catches — and one just inside the bound parses.
func TestDepthBound(t *testing.T) {
	deep := maxDepth + 10
	for name, src := range map[string]string{
		"parentheses":    "SELECT " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"NOT chain":      "SELECT " + strings.Repeat("NOT ", deep) + "TRUE",
		"sign chain":     "SELECT " + strings.Repeat("- ", deep) + "a",
		"AND chain":      "SELECT 1 FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", deep),
		"OR chain":       "SELECT 1 FROM t WHERE a = 1" + strings.Repeat(" OR a = 1", deep),
		"sum":            "SELECT 1" + strings.Repeat(" + 1", deep),
		"product":        "SELECT 1" + strings.Repeat(" * 1", deep),
		"IS NULL chain":  "SELECT a" + strings.Repeat(" IS NULL", deep),
		"subqueries":     strings.Repeat("SELECT (", deep) + "SELECT 1" + strings.Repeat(")", deep),
		"derived tables": strings.Repeat("SELECT * FROM (", deep) + "SELECT 1" + strings.Repeat(") d", deep),
		"joins":          "SELECT * FROM " + strings.Repeat("(", deep) + "t" + strings.Repeat(")", deep),
		"EXPLAIN chain":  strings.Repeat("EXPLAIN ", deep) + "SELECT 1",
		"function calls": "SELECT " + strings.Repeat("ABS(", deep) + "1" + strings.Repeat(")", deep),
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nests deeper") {
			t.Errorf("%s %d deep: err = %v, want the depth error", name, deep, err)
		}
	}
	wide := "SELECT 1 FROM t WHERE a IN (1" + strings.Repeat(", 1", 5*maxDepth) + ")" + strings.Repeat(" AND a = 1", maxDepth/2)
	if _, err := Parse(wide); err != nil {
		t.Errorf("a wide statement inside the bound: %v", err)
	}
}
