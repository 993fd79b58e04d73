package workload

import (
	"fmt"
	"strings"
)

// TestPlanEquivalence's second stream: chains of three joined relations,
// the statements the join order search reorders. The first stream's
// joins have two sides.

// chainSeed seeds the generator of the chain stream.
const chainSeed = 20261018

// eqChain is what a chain of three relations is drawn from: t under
// alias o, its partner under c, and a third relation p that joins o or
// c; a fourth, d, may be LEFT JOINed to any of them.
type eqChain struct {
	t      *eqTable
	thirds []string // p's table, one of them
	// po and pc join p to o, or to c.
	po, pc []string
	pcols  []string // p's columns, p.oid its key
	// fourth is d's table and dkey its key; onD are the conditions of
	// its LEFT JOIN, by the alias besides d they read.
	fourth, dkey string
	onD          map[string][]string
	dcols        []string
}

var eqChains = []*eqChain{
	{t: eqTables[0], thirds: capTables,
		po: []string{"p.oid = o.oid", "p.cust_id = o.cust_id"}, pc: []string{"p.cust_id = c.id", "p.oid = c.id"},
		pcols: []string{"p.amount", "p.region"}, fourth: "customers", dkey: "id",
		onD: map[string][]string{
			"c": {"d.id = c.id AND d.segment = 'retail'"},
			"o": {"d.id = o.oid AND d.segment <> 'online'", "d.id = o.cust_id"},
			"p": {"d.id = p.cust_id"},
		},
		dcols: []string{"d.name", "d.segment"}},
	{t: eqTables[1], thirds: []string{"events"},
		po: []string{"p.oid = o.oid", "p.cust_id = o.cust_id"}, pc: []string{"p.cust_id = c.id", "p.oid = c.id"},
		pcols: []string{"p.amount", "p.region"}, fourth: "customers", dkey: "id",
		onD: map[string][]string{
			"c": {"d.id = c.id AND d.segment = 'retail'"},
			"o": {"d.id = o.oid AND d.segment <> 'online'"},
			"p": {"d.id = p.cust_id", "d.id = p.oid AND p.region = 'north'"},
		},
		dcols: []string{"d.name", "d.segment"}},
	{t: eqTables[2], thirds: []string{"orders_native"},
		po: []string{"p.oid = o.oid", "p.cust_id = o.cust_id"}, pc: []string{"p.oid = c.oid", "p.cust_id = c.cust_id"},
		pcols: []string{"p.cents", "p.rg"}, fourth: "orders_mediated", dkey: "oid",
		onD: map[string][]string{
			"c": {"d.oid = c.oid AND d.region = 'north'"},
			"o": {"d.oid = o.oid AND o.amount < 500.005", "d.cust_id = o.cust_id"},
			"p": {"d.oid = p.oid"},
		},
		dcols: []string{"d.amount", "d.site"}},
}

// chain writes a statement over a chain of three inner joined
// relations, written in an order that joins each to one before it or,
// an eighth of the time, in the comma form over derived tables small
// enough for their product; under a Project, a GROUP BY or an ORDER BY
// with a LIMIT, and a third of the time with a fourth relation LEFT
// JOINed after the first relation or after the chain.
func (g *eqGen) chain() eqQuery {
	ch := eqChains[g.r.Intn(len(eqChains))]
	t, j := ch.t, ch.t.joins
	q := eqQuery{t: t}
	table := map[string]string{"c": j.table, "o": t.name, "p": g.pick(ch.thirds...)}
	key := map[string]string{"c": j.key, "o": t.key, "p": "oid"}
	// The chain is a path through its middle relation: c and o join on
	// co, and p joins the middle one on pj. The middle relation is among
	// the first two, so each relation after the first joins one before
	// it.
	on := j.on[g.r.Intn(len(j.on))]
	co := fmt.Sprintf("c.%s = o.%s", on[1], on[0])
	mid, pj := "o", g.pick(ch.po...)
	if g.chance(0.5) {
		mid, pj = "c", g.pick(ch.pc...)
	}
	aliases := []string{"c", "o", "p"}
	g.r.Shuffle(3, func(a, b int) { aliases[a], aliases[b] = aliases[b], aliases[a] })
	if aliases[2] == mid {
		aliases[1], aliases[2] = aliases[2], aliases[1]
	}
	var extra []string
	if g.chance(0.3) {
		extra = append(extra, g.pick(j.filters...))
	}
	comma := g.chance(0.125)
	items := make([]string, 3)
	for i, a := range aliases {
		switch {
		case comma:
			// Every relation joins on its key, cut to a few dozen rows.
			items[i] = fmt.Sprintf("(SELECT * FROM %s WHERE %s < %d) %s", table[a], key[a], 10+g.r.Intn(30), a)
		case i == 0:
			items[i] = table[a] + " " + a
		default:
			edge := a
			if a == mid {
				edge = aliases[0]
			}
			cond := co
			if edge == "p" {
				cond = pj
			}
			items[i] = "JOIN " + table[a] + " " + a + " ON " + cond
		}
	}
	if comma {
		co, pj = fmt.Sprintf("c.%s = o.%s", j.key, t.key), "p.oid = o.oid"
		extra = append([]string{co, pj}, extra...)
	}
	total := []string{"c." + j.key, "o." + t.key, "p.oid"}
	cols := []string{"o." + t.amount, "o." + t.region, j.cols[0], ch.pcols[0], ch.pcols[1]}
	if g.chance(0.33) {
		// A comma binds looser than a join: d joins the item it follows.
		at, reads := 0, aliases[0]
		if g.chance(0.5) {
			at, reads = 2, aliases[2]
			if !comma {
				reads = g.pick(aliases...)
			}
		}
		items[at] += " LEFT JOIN " + ch.fourth + " d ON " + g.pick(ch.onD[reads]...)
		total = append(total, "d."+ch.dkey)
		cols = append(cols, ch.dcols...)
	}
	from := " FROM " + strings.Join(items, " ")
	if comma {
		from = " FROM " + strings.Join(items, ", ")
	}
	where := ""
	if len(extra) > 0 || g.chance(0.5) {
		where = g.where(t, "o.", extra...)
	}
	switch g.r.Intn(3) {
	case 0: // grouped
		group := g.pick(j.cols[1], "o."+t.region, ch.pcols[1])
		q.sql = "SELECT " + group + ", " + strings.Join(g.aggs("o."+t.amount, "o."+t.key, "o."+t.fk, "o."+t.region), ", ") +
			from + where + " GROUP BY " + group
		q.sql += g.tail(&q, []string{group}, nil)
	case 1: // ordered and limited
		lead := g.pick(cols...)
		q.sql = "SELECT " + strings.Join(append(total[:len(total):len(total)], lead), ", ") + from + where +
			" ORDER BY " + lead + g.pick("", " DESC") + ", " + strings.Join(total, ", ") +
			fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(10))
		q.ordered = true
	default:
		items := append([]string(nil), total...)
		for _, c := range cols {
			if g.chance(0.4) {
				items = append(items, c)
			}
		}
		q.sql = "SELECT " + strings.Join(items, ", ") + from + where
		q.sql += g.tail(&q, total, cols[:2])
	}
	return q
}
