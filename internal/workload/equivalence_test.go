package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"gis/internal/obs"
	"gis/internal/source"
	gsql "gis/internal/sql"
	"gis/internal/types"
)

// The mediator's contract is that a global query returns the same answer
// whichever plan carried it. TestPlanEquivalence checks it mechanically:
// a seeded generator writes global queries, and every query must return
// the same rows under the default options, under each single-switch
// variant of plans_test.go (each F9 ablation, each forced join strategy,
// sequential fragments) and — when it reads one table of the
// Capability fixture — from each of the four wrapper classes.

// eqRow is a result row and the text it sorts and is looked up by.
type eqRow struct {
	key string
	row types.Row
}

// eqRun executes one statement and returns its rows, sorted by text
// unless the statement orders them totally. It drains the statement's
// stream as the reference keeper does (source.DrainOwned): a row that
// some operator lent to a consumer that keeps it fails the statement.
// So does a value that is not of the kind the statement's schema says:
// a column retyped by its mapping came up as the source stored it when
// the scan had nothing else to translate.
func eqRun(f *Fixture, sql string, ordered bool, params ...types.Value) ([]eqRow, error) {
	return eqRunIn(ctx, f, sql, ordered, params...)
}

// eqRunIn is eqRun on ctx, which may carry a trace.
func eqRunIn(ctx context.Context, f *Fixture, sql string, ordered bool, params ...types.Value) ([]eqRow, error) {
	schema, it, err := f.Engine.QueryIter(ctx, sql, params...)
	if err != nil {
		return nil, err
	}
	res, err := source.DrainOwned(it)
	if err != nil {
		return nil, err
	}
	rows := make([]eqRow, len(res))
	for i, r := range res {
		for j, v := range r {
			if c := schema.Columns[j]; !v.IsNull() && c.Type != types.KindNull && v.Kind() != c.Type {
				return nil, fmt.Errorf("row %d: column %s is %s and holds %s %v", i, c.Name, c.Type, v.Kind(), v)
			}
		}
		rows[i] = eqRow{r.String(), r}
	}
	if !ordered {
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	}
	return rows, nil
}

// sameRow compares two rows value by value. Floats may differ in their
// last bits: partial sums arrive from parallel fragments in any order.
func sameRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() {
			return false
		}
		if a[i].Kind() == types.KindFloat {
			x, y := a[i].Float(), b[i].Float()
			if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return false
			}
		} else if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// subsetOf reports whether the multiset part is contained in whole
// (both sorted). The statements it is asked about do not aggregate (see
// tail), so their floats are stored values and compare exactly.
func subsetOf(part, whole []eqRow) bool {
	i := 0
	for _, p := range part {
		for i < len(whole) && whole[i].key < p.key {
			i++
		}
		if i == len(whole) || whole[i].key != p.key {
			return false
		}
		i++
	}
	return true
}

// diffRows describes the first difference between two results; "" when
// there is none.
func diffRows(got, want []eqRow) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i].key
		}
		if i < len(want) {
			w = want[i].key
		}
		if i >= len(got) || i >= len(want) || !sameRow(got[i].row, want[i].row) {
			return fmt.Sprintf("%d rows, want %d; row %d: got %s, want %s", len(got), len(want), i, g, w)
		}
	}
	return ""
}

// checkEquivalent runs q under every plan variant (and, for $T, every
// wrapper class) and reports each result that differs from the default
// plan's over the first table.
func checkEquivalent(t *testing.T, fixtures map[string]*Fixture, q eqQuery) {
	t.Helper()
	f := fixtures[q.t.fixture]
	tables := []string{q.t.name}
	if q.t.name == "$T" {
		tables = capTables
	}
	on := func(sql, tbl string) string { return strings.ReplaceAll(sql, "$T", tbl) }
	defer setVariant(f, planVariants[0])

	setVariant(f, planVariants[0])
	want, err := eqRun(f, on(q.sql, tables[0]), q.ordered)
	if err != nil {
		t.Errorf("%s\n  default: %v", on(q.sql, tables[0]), err)
		return
	}
	var whole []eqRow
	if q.anySubset {
		if whole, err = eqRun(f, on(q.unlimited, tables[0]), false); err != nil {
			t.Errorf("%s\n  default: %v", on(q.unlimited, tables[0]), err)
			return
		}
	}
	check := func(sql, how string) {
		got, err := eqRun(f, sql, q.ordered)
		switch {
		case err != nil:
			t.Errorf("%s\n  %s: %v", sql, how, err)
		case q.anySubset:
			if len(got) != len(want) || !subsetOf(got, whole) {
				t.Errorf("%s\n  %s: %d rows (want %d), all from the unlimited result: %v", sql, how, len(got), len(want), subsetOf(got, whole))
			}
		default:
			if d := diffRows(got, want); d != "" {
				t.Errorf("%s\n  %s: %s", sql, how, d)
			}
		}
	}
	if q.anySubset {
		check(on(q.sql, tables[0]), "default")
	}
	// Every wrapper class under the default plan; every variant over one
	// table (a join's variants matter on whichever class it reads).
	for _, tbl := range tables[1:] {
		check(on(q.sql, tbl), "default")
	}
	tbl := tables[len(q.sql)%len(tables)]
	for _, v := range planVariants[1:] {
		setVariant(f, v)
		check(on(q.sql, tbl), v.name)
	}
}

// TestPlanEquivalence draws 1 200 statements of one table or two, and
// 300 chains of three joined relations, which only the join order search
// reorders (150 and 40 under -short), and 250 more statements (30) whose
// comparison constants become parameters, run with two sets of values
// (checkRebound). The three streams run side by side, each on fixtures
// of its own: a variant is an engine setting, and the statements write
// nothing.
func TestPlanEquivalence(t *testing.T) {
	n, chains, params := 1200, 300, 250
	if testing.Short() {
		n, chains, params = 150, 40, 30
	}
	// How many parameter statements ran their second values on the plan
	// the first values made.
	var reused atomic.Int64
	t.Cleanup(func() { t.Logf("%d of %d statements with parameters reused a plan", reused.Load(), params) })
	for _, s := range []struct {
		name  string
		seed  int64
		n     int
		check func(*testing.T, map[string]*Fixture, *eqGen)
	}{
		{"statements", equivalenceSeed, n, func(t *testing.T, f map[string]*Fixture, g *eqGen) { checkEquivalent(t, f, g.next()) }},
		{"chains", chainSeed, chains, func(t *testing.T, f map[string]*Fixture, g *eqGen) { checkEquivalent(t, f, g.chain()) }},
		{"parameters", parameterSeed, params, func(t *testing.T, f map[string]*Fixture, g *eqGen) {
			if checkRebound(t, f, g, g.next()) {
				reused.Add(1)
			}
		}},
	} {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			fixtures := testFixtures(t)
			g := &eqGen{r: rand.New(rand.NewSource(s.seed)), points: s.name == "parameters"}
			for i := 0; i < s.n && !t.Failed(); i++ {
				s.check(t, fixtures, g)
			}
		})
	}
}

// parameterSeed seeds the statements TestPlanEquivalence runs with
// parameters.
const parameterSeed = 20261019

// lift makes sql a template: each number or string constant that a
// comparison, an IN list or a BETWEEN reads becomes a parameter, whose
// value vals holds, in order. A constant after a minus sign stays.
func lift(sql string) (tmpl string, vals []types.Value) {
	toks, err := gsql.Tokenize(sql)
	if err != nil {
		return sql, nil
	}
	var b strings.Builder
	last, inList := 0, false
	for i, tk := range toks {
		var prev lexeme
		if i > 0 {
			prev = lexemeOf(toks[i-1])
		}
		switch {
		case tk.Kind == gsql.TokOp && tk.Text == "(" && prev == (lexeme{gsql.TokKeyword, "IN"}):
			inList = true
		case tk.Kind == gsql.TokOp && tk.Text == ")":
			inList = false
		}
		var v types.Value
		raw := len(tk.Text)
		switch tk.Kind {
		case gsql.TokInt:
			n, err := strconv.ParseInt(tk.Text, 10, 64)
			if err != nil {
				continue
			}
			v = types.NewInt(n)
		case gsql.TokFloat:
			f, err := strconv.ParseFloat(tk.Text, 64)
			if err != nil {
				continue
			}
			v = types.NewFloat(f)
		case gsql.TokString:
			raw += 2
			if tk.Pos+raw > len(sql) || sql[tk.Pos] != '\'' || sql[tk.Pos+raw-1] != '\'' {
				continue
			}
			v = types.NewString(tk.Text)
		default:
			continue
		}
		compared := prev.kind == gsql.TokOp && strings.Contains(" = <> < <= > >= ", " "+prev.text+" ")
		listed := inList && (prev.text == "(" || prev.text == ",")
		// BETWEEN lo AND hi: lo follows BETWEEN, hi the AND after lo.
		between := prev == (lexeme{gsql.TokKeyword, "BETWEEN"}) ||
			prev == (lexeme{gsql.TokKeyword, "AND"}) && i > 2 && lexemeOf(toks[i-3]) == (lexeme{gsql.TokKeyword, "BETWEEN"})
		if !compared && !listed && !between {
			continue
		}
		b.WriteString(sql[last:tk.Pos])
		b.WriteString("?")
		last = tk.Pos + raw
		vals = append(vals, v)
	}
	b.WriteString(sql[last:])
	return b.String(), vals
}

// lexeme is a token's kind and text, comparable.
type lexeme struct {
	kind gsql.TokenKind
	text string
}

func lexemeOf(t gsql.Token) lexeme { return lexeme{t.Kind, t.Text} }

// redraw draws values that disagree with vals, each of its kind: an INT
// within twenty of it or, as often, anywhere below 1 000 (another
// fragment's key), a FLOAT between half and one and a half of it, a
// region spelled or coded.
func (g *eqGen) redraw(vals []types.Value) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		switch {
		case v.Kind() == types.KindInt && g.chance(0.5):
			out[i] = types.NewInt(int64(g.r.Intn(1000)))
		case v.Kind() == types.KindInt:
			out[i] = types.NewInt(v.Int() + int64(g.r.Intn(41)) - 20)
		case v.Kind() == types.KindFloat:
			out[i] = types.NewFloat(math.Round(v.Float()*(0.5+g.r.Float64())*1000) / 1000)
		default:
			out[i] = types.NewString(g.pick(append(append([]string(nil), spelled...), coded...)...))
		}
	}
	return out
}

// literal writes vals into tmpl's parameters as SQL literals.
func literal(tmpl string, vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		i := strings.IndexByte(tmpl, '?')
		b.WriteString(tmpl[:i])
		switch v.Kind() {
		case types.KindInt:
			b.WriteString(strconv.FormatInt(v.Int(), 10))
		case types.KindFloat:
			f := strconv.FormatFloat(v.Float(), 'f', -1, 64)
			if !strings.Contains(f, ".") {
				f += ".0"
			}
			b.WriteString(f)
		default:
			b.WriteString("'" + v.Str() + "'")
		}
		tmpl = tmpl[i+1:]
	}
	b.WriteString(tmpl)
	return b.String()
}

// checkRebound runs q's statement as a template (lift) under the default
// options and each variant: with its own values, then with values drawn
// to disagree. The second answer must be what the statement written with
// the second values returns, planned fresh: where the engine kept the
// plan the first call made (DESIGN.md "The statement cache"), a plan
// some value would have changed shows as a different answer. An unordered
// LIMIT's rows are any of the unlimited statement's, so it is left out.
func checkRebound(t *testing.T, fixtures map[string]*Fixture, g *eqGen, q eqQuery) (reused bool) {
	t.Helper()
	if q.anySubset {
		return false
	}
	f := fixtures[q.t.fixture]
	sql := strings.ReplaceAll(q.sql, "$T", capTables[len(q.sql)%len(capTables)])
	tmpl, a := lift(sql)
	if len(a) == 0 {
		return false
	}
	b := g.redraw(a)
	defer setVariant(f, planVariants[0])
	for _, v := range planVariants {
		setVariant(f, v)
		if _, err := eqRun(f, tmpl, q.ordered, a...); err != nil {
			t.Errorf("%s %v\n  %s: %v", tmpl, a, v.name, err)
			continue
		}
		tr := obs.NewTrace(tmpl)
		got, err := eqRunIn(obs.WithTrace(ctx, tr), f, tmpl, q.ordered, b...)
		for _, sp := range tr.FindAll(obs.SpanParse) {
			reused = reused || sp.Name() == "cached"
		}
		want, werr := eqRun(f, literal(tmpl, b), q.ordered)
		switch {
		case (err != nil) != (werr != nil):
			t.Errorf("%s %v after %v\n  %s: %v, written out %v", tmpl, b, a, v.name, err, werr)
		case err == nil:
			if d := diffRows(got, want); d != "" {
				t.Errorf("%s %v after %v\n  %s: %s", tmpl, b, a, v.name, d)
			}
		}
	}
	return reused
}

// TestPlanEquivalenceCases are the statements found to disagree — by the
// generator, or by the reading that sized it — shrunk by hand; each
// names the defect it pinned.
func TestPlanEquivalenceCases(t *testing.T) {
	fixtures := testFixtures(t)
	capT, mediated := eqTables[0], eqTables[3]
	for _, c := range []struct {
		name string
		q    eqQuery
	}{
		// kvstore answered an IN list once per entry, not once per key;
		// only the mediator filtering a full scan hid it.
		{"kv IN list with duplicate, float and NULL entries",
			eqQuery{t: capT, sql: "SELECT oid, amount FROM $T WHERE oid IN (1, 1, 2.0, NULL)"}},
		{"kv IN list under an ordered limit",
			eqQuery{t: capT, ordered: true, sql: "SELECT oid FROM $T WHERE oid IN (7, 3, 3, 5) ORDER BY oid DESC LIMIT 3"}},
		// Found by the generator: semijoin and bind shipped the keys of
		// a unit-converted column back through the inverse conversion,
		// and the source's equality missed the ones that did not survive
		// ×0.01 ÷0.01 (3 of 26 rows here). Such a key now ships all.
		{"join key on a unit-converted column",
			eqQuery{t: mediated, ordered: true, sql: "SELECT c.oid, o.oid FROM orders_mediated c JOIN orders_mediated o ON c.amount = o.amount WHERE c.oid < 25 ORDER BY c.oid, o.oid"}},
		// A shipped key with no remote form failed the statement: a code
		// of the value map ('N' is a remote code, so no remote row reads
		// as the global 'N'), and a FLOAT that no INT equals (six of
		// these cents are not integral). Such a key now matches nothing
		// on that fragment and is not sent.
		{"join on a value-mapped key",
			eqQuery{t: mediated, sql: "SELECT n.oid, m.oid FROM orders_native n JOIN orders_mediated m ON n.rg = m.region WHERE n.oid < 3 AND m.oid < 3"}},
		{"join of non-integral FLOATs with an INT key",
			eqQuery{t: mediated, sql: "SELECT n.oid, m.oid FROM orders_native n JOIN orders_mediated m ON n.cents = m.oid WHERE n.oid < 110"}},
		// An aggregation with no keys and no aggregates was "pushed" as a
		// plain scan marked final: one row per table row came back.
		{"aggregation with neither keys nor aggregates",
			eqQuery{t: capT, sql: "SELECT 1 FROM $T HAVING 1 = 1"}},
	} {
		t.Run(c.name, func(t *testing.T) { checkEquivalent(t, fixtures, c.q) })
	}
	// Statements no plan of which stands for other values (DESIGN.md
	// "The statement cache"), each run twice with values that disagree:
	// the second call is planned again, and answers — and, over eight
	// fragments, asks the fragments — as the statement written with its
	// values does.
	t.Run("parameters that planning reads", func(t *testing.T) {
		events, err := Partitioned(ctx, 8, 50, false, Link{})
		if err != nil {
			t.Fatal(err)
		}
		defer events.Close()
		hetero, cap := fixtures["hetero"], fixtures["capability"]
		for _, c := range []struct {
			name string
			f    *Fixture
			sql  string
			a, b []types.Value
		}{
			{"range_pruned over eight fragments", events, "SELECT oid, cust_id, amount FROM events WHERE oid >= ? AND oid < ? ORDER BY oid",
				[]types.Value{types.NewInt(120), types.NewInt(140)}, []types.Value{types.NewInt(20), types.NewInt(260)}},
			{"the partition column", events, "SELECT oid, cust_id, amount FROM events WHERE oid = ?",
				[]types.Value{types.NewInt(120)}, []types.Value{types.NewInt(320)}},
			{"a value-mapped column", hetero, "SELECT oid, region FROM orders_mediated WHERE region = ? ORDER BY oid",
				[]types.Value{types.NewString("north")}, []types.Value{types.NewString("W")}},
			{"a unit-converted column", hetero, "SELECT oid, amount FROM orders_mediated WHERE amount < ? ORDER BY oid",
				[]types.Value{types.NewFloat(20.005)}, []types.Value{types.NewFloat(300.005)}},
			{"an IN list of parameters, then repeated values", cap, "SELECT oid, amount FROM orders_rel WHERE oid IN (?, ?, ?, ?) ORDER BY oid",
				[]types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)},
				[]types.Value{types.NewInt(7), types.NewInt(7), types.NewInt(9), types.NewInt(9)}},
		} {
			if _, err := eqRun(c.f, c.sql, true, c.a...); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			traced := func(sql string, vals ...types.Value) ([]eqRow, *obs.Trace) {
				tr := obs.NewTrace(sql)
				rows, err := eqRunIn(obs.WithTrace(ctx, tr), c.f, sql, true, vals...)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				return rows, tr
			}
			got, gotTrace := traced(c.sql, c.b...)
			want, wantTrace := traced(literal(c.sql, c.b))
			if d := diffRows(got, want); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
			for _, sp := range gotTrace.FindAll(obs.SpanParse) {
				if sp.Name() == "cached" {
					t.Errorf("%s: the second call reused the first one's plan", c.name)
				}
			}
			if g, w := len(gotTrace.FindAll(obs.SpanShip)), len(wantTrace.FindAll(obs.SpanShip)); g != w {
				t.Errorf("%s: the second call asks %d fragments, the statement written out %d", c.name, g, w)
			}
		}
	})
	// A comparison of a unit-converted column with a value some row
	// stores went to the source with the constant divided back, which
	// rounds: the row on the boundary was in under PushFilters=on and out
	// under off for one stored amount in seven, and = found nothing.
	t.Run("unit-converted column compared at stored values", func(t *testing.T) {
		stored, err := eqRun(fixtures["hetero"], "SELECT amount FROM orders_mediated WHERE oid < 40", false)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stored {
			v := strconv.FormatFloat(s.row[0].Float(), 'g', -1, 64)
			for _, op := range []string{"<", "<=", ">", ">=", "=", "<>"} {
				checkEquivalent(t, fixtures, eqQuery{t: mediated, ordered: true,
					sql: "SELECT oid, amount FROM orders_mediated WHERE amount " + op + " " + v + " AND oid < 200 ORDER BY oid"})
			}
		}
	})
}
