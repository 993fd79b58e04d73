package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The statements TestPlanEquivalence runs: a seeded generator writes
// global queries over the fixtures of this package — one table, a
// two-table join, grouped, distinct, ordered and limited, with filters of
// every shape the planner decides on. They live here and not in the test
// so that other packages' tests can draw the same statements
// (EquivalenceStatements).

// equivalenceSeed seeds the generator TestPlanEquivalence draws from.
const equivalenceSeed = 20260930

// EquivalenceStatements returns the first n statements TestPlanEquivalence
// draws, in order. "$T" stands for each table of the Capability fixture
// in turn (orders_rel, orders_kv, orders_doc, orders_file).
func EquivalenceStatements(n int) []string {
	g := &eqGen{r: rand.New(rand.NewSource(equivalenceSeed))}
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().sql
	}
	return out
}

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
	// part is how many keys each fragment of a table partitioned on its
	// key holds; 0 when it is not.
	part int
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
			regions: spelled, nKeys: 1000, part: 250, amountConst: currency, joins: customersJoin},
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

// eqGen draws statements from r. With points, three atoms in four are
// an equality, an IN list of distinct keys or a range of keys — empty,
// narrow, or wide enough to cross fragments and to ship both sides of a
// join — the conjuncts a plan that is bound again may hold
// (TestPlanEquivalence's parameters).
type eqGen struct {
	r      *rand.Rand
	points bool
}

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
	if g.points && g.chance(0.75) {
		switch g.r.Intn(5) {
		case 0:
			return fmt.Sprintf("%s = %d", key, g.r.Intn(t.nKeys))
		case 1:
			return fmt.Sprintf("%s = %d", fk, g.r.Intn(1000))
		case 2:
			return fmt.Sprintf("%s = '%s'", region, g.pick(t.regions...))
		case 3:
			lo, width := g.r.Intn(t.nKeys), 0
			switch g.r.Intn(3) {
			case 0:
				width = -g.r.Intn(3)
			case 1:
				width = 1 + g.r.Intn(20)
			default:
				width = t.nKeys / 3
			}
			return fmt.Sprintf("%s >= %d AND %s < %d", key, lo, key, lo+width)
		default:
			keys := make([]string, 2+g.r.Intn(4))
			for i, k := range g.r.Perm(t.nKeys)[:len(keys)] {
				keys[i] = strconv.Itoa(k)
			}
			return fmt.Sprintf("%s IN (%s)", key, strings.Join(keys, ", "))
		}
	}
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
		return g.pick(key+" = NULL", key+" > NULL", "NULL <= "+key, "1 = 1", "2 + 3 > 4", fmt.Sprintf("%s < 20 + 30", key))
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
		// With points, no disjunction or negation: neither is a conjunct
		// a kept plan may bind again.
		if !g.points && g.chance(0.2) {
			a = "(" + a + " OR " + g.atom(t, prefix) + ")"
		}
		if !g.points && g.chance(0.1) {
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
// alias c, either side first, inner or left. An eighth of the inner joins
// are written the SQL-89 way, FROM c, o WHERE c.x = o.y, and half of
// those with one more conjunct over both aliases.
func (g *eqGen) join(q *eqQuery) {
	t, j := q.t, q.t.joins
	on := j.on[g.r.Intn(len(j.on))]
	var extra []string
	if g.chance(0.8) {
		extra = append(extra, g.pick(j.filters...))
	}
	first, second := j.table+" c", t.name+" o"
	cond := fmt.Sprintf("c.%s = o.%s", on[1], on[0])
	kind := g.pick("", "", "LEFT ")
	if g.chance(0.4) {
		first, second = second, first
		cond = fmt.Sprintf("o.%s = c.%s", on[0], on[1])
		kind = g.pick("", "", "LEFT ")
		if len(extra) == 0 || g.chance(0.5) {
			extra = append(extra, fmt.Sprintf("o.%s < %d", t.key, 10+g.r.Intn(60)))
		}
	}
	from := " FROM " + first + " " + kind + "JOIN " + second + " ON " + cond
	if kind == "" && g.chance(0.125) {
		from = " FROM " + first + ", " + second
		extra = append([]string{cond}, extra...)
		if g.chance(0.5) {
			extra = append(extra, fmt.Sprintf(g.pick("(o.%s + c.%s) %% 3 <> 0", "o.%s >= c.%s", "(o.%s < 40 OR c.%s %% 5 = 0)"), t.key, j.key))
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
