package workload

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gis/internal/sql"
	"gis/internal/types"
)

// renderParsed parses every statement the repository's tests name — the
// parser's fuzz seeds (a mark bound to its ordinal), the plan corpus
// with its parameters and the first 1 200 equivalence statements ($T
// read as orders_rel) — and records, under each, its printed form or its
// error. The printed form parenthesizes every operator, so two trees
// that print alike are alike.
func renderParsed(t *testing.T) string {
	data, err := os.ReadFile("../sql/testdata/parse_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		sql    string
		params []types.Value
	}
	var ins []input
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("parse_seeds.txt: %q: %v", line, err)
		}
		in := input{sql: s}
		toks, _ := sql.Tokenize(s)
		for _, tok := range toks {
			if tok.Kind == sql.TokParam {
				in.params = append(in.params, types.NewInt(int64(len(in.params)+1)))
			}
		}
		ins = append(ins, in)
	}
	for _, c := range planCorpus() {
		ins = append(ins, input{c.sql, c.params})
	}
	for _, s := range EquivalenceStatements(1200) {
		ins = append(ins, input{sql: strings.ReplaceAll(s, "$T", "orders_rel")})
	}
	var b strings.Builder
	for _, in := range ins {
		fmt.Fprintf(&b, "== %q", in.sql)
		if len(in.params) > 0 {
			fmt.Fprintf(&b, "  -- params %v", types.Row(in.params))
		}
		b.WriteByte('\n')
		if stmt, err := sql.Parse(in.sql, in.params...); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			fmt.Fprintf(&b, "%s\n", stmt)
		}
	}
	return b.String()
}

// TestParsedGolden pins what the parser produces for every statement
// above against testdata/parsed.golden. A parser change meant to move no
// tree shows no diff here; one that means to regenerates the file with
// `make golden` and reviews the diff.
func TestParsedGolden(t *testing.T) {
	matchGolden(t, "testdata/parsed.golden", renderParsed(t))
}
