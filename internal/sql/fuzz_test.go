package sql

import (
	"strings"
	"testing"
)

// fuzzSeeds are statements of every kind plus the lexical oddities SQL
// dialects disagree on (the forms a tokenizer's dialect switches
// enumerate): quoting and escapes, comments, number spellings,
// parameters, and near-misses of each that must fail cleanly.
var fuzzSeeds = []string{
	// Statements.
	"SELECT a, b AS x, t.*, COUNT(*), SUM(DISTINCT c) FROM t WHERE a > 1 AND b <> 'x' GROUP BY a, b HAVING COUNT(*) > 2 ORDER BY a DESC, 2 LIMIT 10 OFFSET 3",
	"SELECT DISTINCT c.name FROM customers c JOIN orders AS o ON c.id = o.cust_id LEFT JOIN s ON s.k = o.k CROSS JOIN u RIGHT OUTER JOIN v ON TRUE",
	"SELECT * FROM (SELECT a FROM t UNION ALL SELECT b FROM u) AS d WHERE a IN (SELECT x FROM y) OR EXISTS (SELECT 1 FROM z) AND a = (SELECT MAX(q) FROM w)",
	"SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v ORDER BY 1 LIMIT 5",
	"SELECT CASE WHEN a IS NULL THEN 0 WHEN a BETWEEN 1 AND 5 THEN 1 ELSE -a END, CASE a WHEN 1 THEN 'one' END, CAST(a AS FLOAT), COALESCE(a, b, 0) FROM t",
	"SELECT a FROM t WHERE NOT (a LIKE 'x%' OR a NOT LIKE '_y') AND a NOT IN (1, 2.5, NULL) AND a NOT BETWEEN 1 AND 2 AND b IS NOT NULL",
	"SELECT -a + b * (c - 1) / 2 % 3, 'a' || 'b', ABS(-1), 1 = 1, TRUE, FALSE, NULL",
	"SELECT 1",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)",
	"INSERT INTO t VALUES (1 + 2, -3)",
	"UPDATE t SET a = a + 1, b = CASE WHEN a < ? THEN 'lo' ELSE 'hi' END WHERE id >= 10 AND id < 20",
	"DELETE FROM t WHERE id = 7",
	"DELETE FROM t",
	"EXPLAIN SELECT a FROM t",
	"EXPLAIN ANALYZE SELECT a FROM t WHERE a = ?;",
	// Quoting.
	`SELECT "a b", "select", "q""uote", t."c" FROM "my table" AS "t"`,
	`SELECT 'it''s', '', '''', 'multi
line', '-- not a comment', '/* nor this */' FROM t`,
	"SELECT `a` FROM t", "SELECT [a] FROM t", "SELECT $1", "SELECT :name", "SELECT @v", "SELECT $$x$$",
	`SELECT "unterminated FROM t`, "SELECT 'unterminated", `SELECT ""`, `SELECT N'x', _latin1'x', U&"\0441"`,
	// Comments.
	"SELECT a -- trailing\nFROM t /* block */ WHERE /* nested /* not */ a = 1",
	"SELECT a /* unterminated", "SELECT a # hash comment\nFROM t", "--", "/**/", "SELECT/**/a/**/FROM/**/t",
	// Numbers.
	"SELECT 0, 007, 1., .5, 1.5e10, 1E-3, 1e+3, 9223372036854775807, 9223372036854775808, 1e999, 1e, 1.2.3, 1..2",
	"SELECT 0x1F, x'af', X'AF', 0b01, b'01', 10f, 1.5d, $10.32, 1_000",
	"SELECT a FROM t LIMIT 9223372036854775808", "SELECT a FROM t LIMIT -1", "SELECT a FROM t OFFSET 2",
	// Punctuation and structure near-misses.
	"", ";", "SELECT", "SELECT ,", "SELECT a FROM", "SELECT a FROM t WHERE", "SELECT (((a)))", "SELECT ((a)", "SELECT a b c",
	"SELECT a FROM t t2 t3", "SELECT * FROM t; SELECT 1", "SELECT a != b, a <> b, a <= b, a >= b, a || b, a ! b",
	"SELECT COUNT(DISTINCT *), COUNT(), f(,)", "SELECT a.b.c FROM t", "SELECT t.* AS x FROM t", "\x00", "SELECT \xff",
	// Characters outside the dialect, keywords in mixed case, words one
	// byte and many bytes past the longest keyword, and each two-byte
	// operator with the input ending inside or right after it.
	"SELECT é FROM t", "SELECT §", "SeLeCt a fRoM t wHeRe a Is NoT nUlL", "SELECT distinct_customer, distinctx FROM t",
	"SELECT " + strings.Repeat("SelectFr", 8) + " FROM t",
	"SELECT a <=", "SELECT a >=", "SELECT a <>", "SELECT a !=", "SELECT a ||", "SELECT a <", "SELECT a !", "SELECT a |",
}

// FuzzParse feeds arbitrary text to the lexer and parser. Whatever the
// text: a statement or a clean error, never a panic; and a statement's
// printed form is a fixed point — it parses, to a statement that prints
// the same. (The printed form is what a view stores, what EXPLAIN shows
// and what the query log fingerprints.)
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("SELECT " + strings.Repeat("(", 2*maxDepth) + "1")
	f.Add("SELECT " + strings.Repeat("NOT ", maxDepth/2) + "a")
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil && strings.Contains(err.Error(), "nests deeper") {
			// The printed form parenthesizes every operator, so a tree
			// close to maxDepth prints deeper than the parser reads.
			return
		}
		if err != nil {
			t.Fatalf("%q parses, but its printed form %q does not: %v", text, printed, err)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q prints as %q, which prints as %q", text, printed, reprinted)
		}
	})
}
