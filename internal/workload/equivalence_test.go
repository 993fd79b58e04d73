package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gis/internal/source"
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
func eqRun(f *Fixture, sql string, ordered bool) ([]eqRow, error) {
	schema, it, err := f.Engine.QueryIter(ctx, sql)
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

func TestPlanEquivalence(t *testing.T) {
	fixtures := testFixtures(t)
	g := &eqGen{r: rand.New(rand.NewSource(equivalenceSeed))}
	n := 1200
	if testing.Short() {
		n = 150
	}
	for i := 0; i < n && !t.Failed(); i++ {
		checkEquivalent(t, fixtures, g.next())
	}
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
