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

// eqTable is a table the generator draws from: a unique integer key, an
// integer foreign key into customers.id, a float and a four-valued
// string, under whatever names and spellings the table gives them.
type eqTable struct {
	fixture string
	name    string // "$T" stands for each of capTables in turn
	key, fk string
	amount  string
	region  string
	regions []string
	nKeys   int
	// amountConst renders a filter constant for the float column that no
	// stored value equals or rounds to. (It was chosen so while a
	// unit-converted column compared at the source and at the mediator
	// could disagree on an exact boundary; they cannot any more, and
	// TestPlanEquivalenceCases compares at stored values.)
	amountConst func(r *rand.Rand) string
	// joins is the other side of a two-table query.
	joins *eqJoin
}

// eqJoin is the table an eqTable is joined with: on[0] pairs a column of
// the eqTable (alias o) with one of the partner (alias c).
type eqJoin struct {
	table   string
	on      [][2]string
	key     string   // unique key of the partner
	filters []string // atoms over alias c
	cols    []string
}

var (
	spelled = []string{"north", "south", "east", "west"}
	coded   = []string{"N", "S", "E", "W"}

	customersJoin = &eqJoin{
		table: "customers",
		on:    [][2]string{{"cust_id", "id"}, {"oid", "id"}},
		key:   "id",
		filters: []string{
			"c.id < 40", "c.id >= 990", "c.id IN (3, 3, 17, 4.0, NULL)", "c.segment = 'retail'",
			"c.name LIKE 'cust-00001%'", "c.id BETWEEN 100 AND 130", "c.id % 7 = 0 AND c.id < 300",
		},
		cols: []string{"c.name", "c.segment", "c.id"},
	}
	currency = func(r *rand.Rand) string { return fmt.Sprintf("%d.%02d5", r.Intn(1000), r.Intn(100)) }
	cents    = func(r *rand.Rand) string { return fmt.Sprintf("%d.5", r.Intn(100000)) }

	eqTables = []*eqTable{
		{fixture: "capability", name: "$T", key: "oid", fk: "cust_id", amount: "amount", region: "region",
			regions: spelled, nKeys: 300, amountConst: currency, joins: customersJoin},
		{fixture: "partitioned", name: "events", key: "oid", fk: "cust_id", amount: "amount", region: "region",
			regions: spelled, nKeys: 1000, amountConst: currency, joins: customersJoin},
		{fixture: "hetero", name: "orders_mediated", key: "oid", fk: "cust_id", amount: "amount", region: "region",
			regions: spelled, nKeys: 500, amountConst: currency, joins: &eqJoin{
				table:   "orders_native",
				on:      [][2]string{{"oid", "oid"}, {"cust_id", "cust_id"}},
				key:     "oid",
				filters: []string{"c.oid < 25", "c.rg = 'N' AND c.oid < 90", "c.cents < 5000.5", "c.oid IN (1, 2, 2, 499)"},
				cols:    []string{"c.cents", "c.rg", "c.cust_id"},
			}},
		{fixture: "hetero", name: "orders_mediated", key: "oid", fk: "cust_id", amount: "amount", region: "region",
			regions: spelled, nKeys: 500, amountConst: currency, joins: &eqJoin{
				table:   "orders_mediated",
				on:      [][2]string{{"amount", "amount"}, {"oid", "oid"}},
				key:     "oid",
				filters: []string{"c.oid < 25", "c.region = 'north' AND c.oid < 90", "c.amount < 50.005", "c.site = 'legacy-dc'"},
				cols:    []string{"c.amount", "c.region", "c.site"},
			}},
		{fixture: "hetero", name: "orders_native", key: "oid", fk: "cust_id", amount: "cents", region: "rg",
			regions: coded, nKeys: 500, amountConst: cents},
	}
)

type eqGen struct{ r *rand.Rand }

func (g *eqGen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }
func (g *eqGen) chance(p float64) bool    { return g.r.Float64() < p }

// intList renders an IN list over [0,n): duplicates, a float-typed
// entry and a NULL all occur.
func (g *eqGen) intList(n int) string {
	parts := make([]string, 1+g.r.Intn(5))
	for i := range parts {
		v := g.r.Intn(n)
		switch g.r.Intn(8) {
		case 0:
			parts[i] = "NULL"
		case 1:
			parts[i] = strconv.Itoa(v) + ".0"
		case 2:
			if i > 0 {
				parts[i] = parts[i-1]
				break
			}
			fallthrough
		default:
			parts[i] = strconv.Itoa(v)
		}
	}
	return strings.Join(parts, ", ")
}

// atom writes one predicate over t's columns, qualified by prefix.
func (g *eqGen) atom(t *eqTable, prefix string) string {
	key, fk, amount, region := prefix+t.key, prefix+t.fk, prefix+t.amount, prefix+t.region
	cmp := func() string { return g.pick("=", "<", "<=", ">", ">=", "<>") }
	switch g.r.Intn(16) {
	case 0, 1:
		return fmt.Sprintf("%s %s %d", key, cmp(), g.r.Intn(t.nKeys+10)-5)
	case 2, 3:
		return fmt.Sprintf("%s %sIN (%s)", key, g.pick("", "", "NOT "), g.intList(t.nKeys))
	case 4:
		lo := g.r.Intn(t.nKeys)
		return fmt.Sprintf("%s BETWEEN %d AND %d", key, lo, lo+g.r.Intn(t.nKeys/4))
	case 5:
		return fmt.Sprintf("%d %s %s", g.r.Intn(t.nKeys), g.pick("<", ">=", "="), key)
	case 6:
		return fmt.Sprintf("%s %s %d", fk, cmp(), g.r.Intn(1000))
	case 7:
		return fmt.Sprintf("%s IN (%s)", fk, g.intList(1000))
	case 8, 9:
		return fmt.Sprintf("%s %s %s", amount, g.pick("<", "<=", ">", ">="), t.amountConst(g.r))
	case 10:
		return fmt.Sprintf("%s %s '%s'", region, g.pick("=", "<>", "<", ">="), g.pick(t.regions...))
	case 11:
		return fmt.Sprintf("%s %sIN ('%s', '%s', NULL)", region, g.pick("", "NOT "), g.pick(t.regions...), g.pick(t.regions...))
	case 12:
		return fmt.Sprintf("%s %sLIKE '%s%%'", region, g.pick("", "NOT "), g.pick(t.regions...)[:1])
	case 13:
		return fmt.Sprintf("%s IS %sNULL", g.pick(key, amount, region), g.pick("", "NOT "))
	case 14:
		return g.pick(key+" = NULL", "1 = 1", "2 + 3 > 4", fmt.Sprintf("%s < 20 + 30", key))
	default:
		return fmt.Sprintf("%s %% %d = %d", g.pick(key, fk), 2+g.r.Intn(5), g.r.Intn(2))
	}
}

// where writes zero to three conjuncts; a conjunct may be a disjunction
// or negated.
func (g *eqGen) where(t *eqTable, prefix string, extra ...string) string {
	conj := append([]string(nil), extra...)
	for n := g.r.Intn(4); n > 0; n-- {
		a := g.atom(t, prefix)
		if g.chance(0.2) {
			a = "(" + a + " OR " + g.atom(t, prefix) + ")"
		}
		if g.chance(0.1) {
			a = "NOT (" + a + ")"
		}
		conj = append(conj, a)
	}
	if len(conj) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conj, " AND ")
}

// eqQuery is a generated statement and how its results compare.
type eqQuery struct {
	t   *eqTable
	sql string
	// ordered: the ORDER BY is total, so rows compare in sequence.
	ordered bool
	// anySubset: LIMIT without ORDER BY; any rows of the unlimited
	// statement do, so only the count and membership compare.
	anySubset bool
	unlimited string
}

// tail writes ORDER BY / LIMIT / OFFSET. total lists keys that order the
// rows totally; other, optional leading keys. A statement without other
// keys aggregates, and its LIMIT is always ordered: which groups an
// unordered LIMIT kept could only be checked by comparing sums exactly.
func (g *eqGen) tail(q *eqQuery, total []string, other []string) string {
	limit := g.chance(0.4)
	var s string
	if g.chance(0.5) || limit && len(other) == 0 {
		var keys []string
		if len(other) > 0 && g.chance(0.6) {
			keys = append(keys, g.pick(other...)+g.pick("", " DESC"))
		}
		for _, k := range total {
			keys = append(keys, k+g.pick("", "", " DESC"))
		}
		s = " ORDER BY " + strings.Join(keys, ", ")
		q.ordered = true
	}
	if limit {
		q.unlimited = q.sql + s
		s += fmt.Sprintf(" LIMIT %d", g.r.Intn(12))
		if g.chance(0.4) {
			s += fmt.Sprintf(" OFFSET %d", g.r.Intn(4))
		}
		q.anySubset = !q.ordered
	}
	return s
}

func (g *eqGen) aggs(amount, key, fk, region string) []string {
	all := []string{
		"COUNT(*)", "SUM(" + amount + ")", "MIN(" + amount + ")", "MAX(" + key + ")", "AVG(" + amount + ")",
		"COUNT(DISTINCT " + region + ")", "COUNT(" + fk + ")", "SUM(" + key + ")", "MIN(" + region + ")",
	}
	g.r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:1+g.r.Intn(3)]
}

func (g *eqGen) next() eqQuery {
	t := eqTables[g.r.Intn(len(eqTables))]
	q := eqQuery{t: t}
	if t.joins != nil && g.chance(0.3) {
		g.join(&q)
		return q
	}
	from := " FROM " + t.name
	switch {
	case g.chance(0.4): // grouped
		// A grouping expression is selected under an alias: ORDER BY
		// resolves select-list names, not GROUP BY expressions.
		var group, names []string
		switch g.r.Intn(5) {
		case 0: // global
		case 1:
			group, names = []string{t.region}, []string{t.region}
		case 2:
			group, names = []string{fmt.Sprintf("%s %% %d", t.fk, 2+g.r.Intn(4))}, []string{"g0"}
		case 3:
			group, names = []string{t.region, fmt.Sprintf("%s %% 3", t.key)}, []string{t.region, "g1"}
		default:
			group, names = []string{t.fk}, []string{t.fk}
		}
		var items []string
		for i, e := range group {
			items = append(items, e+" AS "+names[i])
		}
		if len(group) == 0 || g.chance(0.85) {
			items = append(items, g.aggs(t.amount, t.key, t.fk, t.region)...)
		}
		q.sql = "SELECT " + strings.Join(items, ", ") + from + g.where(t, "")
		if len(group) > 0 {
			q.sql += " GROUP BY " + strings.Join(group, ", ")
			if g.chance(0.3) {
				q.sql += fmt.Sprintf(" HAVING COUNT(*) %s %d", g.pick(">", "<=", "="), g.r.Intn(6))
			}
			q.sql += g.tail(&q, names, nil)
		}
	case g.chance(0.15): // DISTINCT
		cols, names := []string{t.region}, []string{t.region}
		switch g.r.Intn(3) {
		case 0:
			cols, names = []string{t.region, t.fk + " % 4 AS d1"}, []string{t.region, "d1"}
		case 1:
			cols, names = []string{t.fk}, []string{t.fk}
		}
		q.sql = "SELECT DISTINCT " + strings.Join(cols, ", ") + from + g.where(t, "")
		q.sql += g.tail(&q, names, nil)
	default:
		all := []string{t.key, t.fk, t.amount, t.region}
		items := "*"
		if g.chance(0.8) {
			g.r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			cols := append([]string(nil), all[:1+g.r.Intn(4)]...)
			if g.chance(0.2) {
				cols = append(cols, t.amount+" * 2 AS dbl")
			}
			if g.chance(0.1) {
				cols = append(cols, cols[0])
			}
			items = strings.Join(cols, ", ")
		}
		q.sql = "SELECT " + items + from + g.where(t, "")
		q.sql += g.tail(&q, []string{t.key}, []string{t.amount, t.region, t.fk, t.amount + " * -1"})
	}
	return q
}

// join writes a two-table statement: t under alias o, its partner under
// alias c, either side first, inner or left.
func (g *eqGen) join(q *eqQuery) {
	t, j := q.t, q.t.joins
	on := j.on[g.r.Intn(len(j.on))]
	var extra []string
	if g.chance(0.8) {
		extra = append(extra, g.pick(j.filters...))
	}
	from := fmt.Sprintf(" FROM %s c %sJOIN %s o ON c.%s = o.%s", j.table, g.pick("", "", "LEFT "), t.name, on[1], on[0])
	if g.chance(0.4) {
		from = fmt.Sprintf(" FROM %s o %sJOIN %s c ON o.%s = c.%s", t.name, g.pick("", "", "LEFT "), j.table, on[0], on[1])
		if len(extra) == 0 || g.chance(0.5) {
			extra = append(extra, fmt.Sprintf("o.%s < %d", t.key, 10+g.r.Intn(60)))
		}
	}
	where := g.where(t, "o.", extra...)
	if g.chance(0.3) {
		group := g.pick(j.cols[1], "o."+t.region)
		q.sql = "SELECT " + group + ", " + strings.Join(g.aggs("o."+t.amount, "o."+t.key, "o."+t.fk, "o."+t.region), ", ") +
			from + where + " GROUP BY " + group
		q.sql += g.tail(q, []string{group}, nil)
		return
	}
	items := []string{"c." + j.key, "o." + t.key}
	for _, c := range append([]string{"o." + t.amount, "o." + t.region}, j.cols...) {
		if g.chance(0.4) {
			items = append(items, c)
		}
	}
	q.sql = "SELECT " + strings.Join(items, ", ") + from + where
	q.sql += g.tail(q, []string{"c." + j.key, "o." + t.key}, []string{"o." + t.amount, j.cols[0]})
}

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
	g := &eqGen{r: rand.New(rand.NewSource(20260930))}
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
