package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gis/internal/types"
)

// The generators below own every input the benchmark feeds the system:
// table contents and statement sequences are pure functions of the seed
// and the sizes, held in plain Go structs (not types.Row) so the oracle
// stays independent of the value representation it is checking.

type order struct {
	oid, cust int64
	amount    float64
	region    string
}

type customer struct {
	id            int64
	name, segment string
}

var (
	regions      = []string{"north", "south", "east", "west"}
	custSegments = []string{"retail", "wholesale", "online"}
)

// genOrders draws n orders with oid 0..n-1. Each column is an even
// spread in a seeded random order: every customer has n/custs orders and
// every region n/4 (give or take one), and the amounts are one draw from
// each of n equal slices of the amount range — so how many rows a
// customer, a region or an amount bound selects, and with it what a
// statement costs, does not depend on the seed. Amounts are multiples of
// 0.25 below 100 000, so every sum the workloads compute is exact in
// float64 whichever order the system adds it up in — the oracle can
// compare sums without a tolerance that would hide a wrong row.
func genOrders(rng *rand.Rand, n, custs int) []order {
	const amountSteps = 400000 // quarter units below 100 000
	slice := max(1, amountSteps/n)
	byCust, byAmount, byRegion := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	out := make([]order, n)
	for i := range out {
		out[i] = order{
			oid:    int64(i),
			cust:   int64(byCust[i] % custs),
			amount: float64(byAmount[i]%amountSteps*slice+rng.Intn(slice)) / 4,
			region: regions[byRegion[i]%len(regions)],
		}
	}
	return out
}

func genCustomers(rng *rand.Rand, n int) []customer {
	out := make([]customer, n)
	for i := range out {
		out[i] = customer{
			id:      int64(i),
			name:    fmt.Sprintf("cust-%06d", i),
			segment: custSegments[rng.Intn(len(custSegments))],
		}
	}
	return out
}

func (o order) row() types.Row {
	return types.Row{types.NewInt(o.oid), types.NewInt(o.cust), types.NewFloat(o.amount), types.NewString(o.region)}
}

func (c customer) row() types.Row {
	return types.Row{types.NewInt(c.id), types.NewString(c.name), types.NewString(c.segment)}
}

func orderRows(os []order) []types.Row {
	out := make([]types.Row, len(os))
	for i, o := range os {
		out[i] = o.row()
	}
	return out
}

func customerRows(cs []customer) []types.Row {
	out := make([]types.Row, len(cs))
	for i, c := range cs {
		out[i] = c.row()
	}
	return out
}

// stmt is one generated statement with what the oracle expects of it.
type stmt struct {
	tmpl   int // index into the workload's templates
	params []types.Value
	// want is the expected row count of a read, or affected-row count
	// of a write; every statement is checked against it.
	want int64
	// full returns the complete expected answer. It is evaluated for
	// one statement in fullCheckEvery, or for every statement when
	// always is set (the answer was needed for want anyway, or the
	// statement is the workload's invariant check).
	full   func() [][]any
	always bool
}

// template is one statement class of a workload.
type template struct {
	name    string
	sql     string
	write   bool
	ordered bool // the answer's row order is part of the contract
}

// generator yields a workload's statement sequence. Calls must be made
// in order: update_2pc's expectations depend on every earlier statement
// having been applied.
type generator interface {
	next() stmt
}

// evenDraw yields uniform draws from [0,1] that any run of consecutive
// calls covers evenly, where independent draws would clump: the points
// of a Kronecker sequence from a seeded start, each followed by its
// mirror image, so that every two draws average one half exactly. The
// parameters that decide how many rows a statement touches are drawn
// this way; a window's work per statement is then the same on every
// seed and the per-statement allocation counts repeat across seeds.
type evenDraw struct {
	x      float64
	mirror bool
}

func newEvenDraw(rng *rand.Rand) *evenDraw { return &evenDraw{x: rng.Float64()} }

func (e *evenDraw) next() float64 {
	if e.mirror = !e.mirror; !e.mirror {
		return 1 - e.x
	}
	e.x += 0.6180339887498949 // the golden ratio's fractional part
	e.x -= math.Floor(e.x)
	return e.x
}

// threshold is an amount bound that between 20% and 80% of orders pass.
func (e *evenDraw) threshold() float64 { return 20000 + math.Floor(60000*e.next()) }

func ints(vs ...int64) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

// twoTableData is the customers and orders (or events) every read
// workload is generated from.
type twoTableData struct {
	customers []customer
	orders    []order
	byCust    [][]int32 // order positions per customer
}

func genTwoTable(seed int64, nCust, nOrd int) *twoTableData {
	rng := rand.New(rand.NewSource(seed))
	d := &twoTableData{customers: genCustomers(rng, nCust), orders: genOrders(rng, nOrd, nCust)}
	d.byCust = make([][]int32, nCust)
	for i, o := range d.orders {
		d.byCust[o.cust] = append(d.byCust[o.cust], int32(i))
	}
	return d
}

// ---- point_remote and ship_remote: customers ⋈ orders on two remote sources ----

var pointTemplates = []template{
	{name: "pk_lookup", sql: "SELECT oid, cust_id, amount, region FROM orders WHERE oid = ?"},
	{name: "fk_agg", sql: "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust_id = ?"},
	{name: "fk_join_top5", ordered: true,
		sql: "SELECT c.name, o.oid, o.amount FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id = ? ORDER BY o.amount DESC, o.oid LIMIT 5"},
	{name: "in_list", sql: "SELECT oid, amount FROM orders WHERE oid IN (?, ?, ?, ?, ?, ?, ?, ?)"},
}

type pointGen struct {
	d   *twoTableData
	rng *rand.Rand
	i   int
}

func (g *pointGen) next() stmt {
	d := g.d
	t := g.i % len(pointTemplates)
	g.i++
	switch t {
	case 0:
		o := d.orders[g.rng.Intn(len(d.orders))]
		return stmt{tmpl: t, params: ints(o.oid), want: 1, full: func() [][]any {
			return [][]any{{o.oid, o.cust, o.amount, o.region}}
		}}
	case 1:
		c := int64(g.rng.Intn(len(d.customers)))
		return stmt{tmpl: t, params: ints(c), want: 1, full: func() [][]any {
			var sum any // SUM over no rows is NULL
			if n := len(d.byCust[c]); n > 0 {
				s := 0.0
				for _, p := range d.byCust[c] {
					s += d.orders[p].amount
				}
				sum = s
			}
			return [][]any{{int64(len(d.byCust[c])), sum}}
		}}
	case 2:
		c := int64(g.rng.Intn(len(d.customers)))
		return stmt{tmpl: t, params: ints(c), want: int64(min(5, len(d.byCust[c]))), full: func() [][]any {
			os := make([]order, 0, len(d.byCust[c]))
			for _, p := range d.byCust[c] {
				os = append(os, d.orders[p])
			}
			sort.Slice(os, func(a, b int) bool {
				if os[a].amount != os[b].amount {
					return os[a].amount > os[b].amount
				}
				return os[a].oid < os[b].oid
			})
			os = os[:min(5, len(os))]
			out := make([][]any, len(os))
			for i, o := range os {
				out[i] = []any{d.customers[c].name, o.oid, o.amount}
			}
			return out
		}}
	default:
		keys := make([]int64, 8)
		distinct := map[int64]bool{}
		for i := range keys {
			keys[i] = int64(g.rng.Intn(len(d.orders)))
			distinct[keys[i]] = true
		}
		return stmt{tmpl: t, params: ints(keys...), want: int64(len(distinct)), full: func() [][]any {
			out := make([][]any, 0, len(distinct))
			for k := range distinct {
				out = append(out, []any{k, d.orders[k].amount})
			}
			return out
		}}
	}
}

var shipTemplates = []template{
	{name: "range_ship", sql: "SELECT oid, cust_id, amount, region FROM orders WHERE oid >= ? AND oid < ?"},
	{name: "ship_sum_scaled", sql: "SELECT COUNT(*), SUM(amount_cents) FROM orders_cents WHERE oid >= ? AND oid < ?"},
	{name: "ship_join", sql: "SELECT o.oid, c.name, o.amount FROM orders o JOIN customers c ON o.cust_id = c.id WHERE o.oid >= ? AND o.oid < ?"},
}

type shipGen struct {
	d    *twoTableData
	rng  *rand.Rand
	span int // rows per range
	i    int
}

func (g *shipGen) next() stmt {
	d := g.d
	t := g.i % len(shipTemplates)
	g.i++
	lo := g.rng.Intn(len(d.orders) - g.span + 1)
	part := d.orders[lo : lo+g.span]
	s := stmt{tmpl: t, params: ints(int64(lo), int64(lo+g.span)), want: int64(g.span)}
	switch t {
	case 0:
		s.full = func() [][]any {
			out := make([][]any, len(part))
			for i, o := range part {
				out[i] = []any{o.oid, o.cust, o.amount, o.region}
			}
			return out
		}
	case 1:
		s.want = 1
		s.full = func() [][]any {
			sum := 0.0
			for _, o := range part {
				sum += o.amount * 100
			}
			return [][]any{{int64(len(part)), sum}}
		}
	default:
		s.full = func() [][]any {
			out := make([][]any, len(part))
			for i, o := range part {
				out[i] = []any{o.oid, d.customers[o.cust].name, o.amount}
			}
			return out
		}
	}
	return s
}

// ---- hetero_local: one orders table held by four kinds of store ----

// regionCode is the mediated view's value map (remote → global).
var regionCode = map[string]string{"north": "N", "south": "S", "east": "E", "west": "W"}

const mediatedSite = "h_rel"

var heteroTemplates = []template{
	{name: "rel_join_group", sql: "SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders_rel o JOIN customers c ON o.cust_id = c.id WHERE o.amount < ? GROUP BY c.segment"},
	{name: "mediated_sum", sql: "SELECT region, site, COUNT(*), SUM(amount_cents) FROM orders_mediated WHERE oid >= ? AND oid < ? GROUP BY region, site"},
	{name: "kv_filter_agg", sql: "SELECT region, COUNT(*), SUM(amount) FROM orders_kv WHERE amount < ? GROUP BY region"},
	{name: "doc_filter_agg", sql: "SELECT region, COUNT(*), SUM(amount) FROM orders_doc WHERE cust_id < ? GROUP BY region"},
	{name: "file_topk", ordered: true, sql: "SELECT oid, amount FROM orders_file WHERE region = ? AND amount < ? ORDER BY amount DESC, oid LIMIT 10"},
}

type heteroGen struct {
	d    *twoTableData
	rng  *rand.Rand
	even []*evenDraw // one sequence per template
	i    int
}

func newHeteroGen(d *twoTableData, rng *rand.Rand) *heteroGen {
	g := &heteroGen{d: d, rng: rng}
	for range heteroTemplates {
		g.even = append(g.even, newEvenDraw(rng))
	}
	return g
}

// groupSum is the naive GROUP BY key → (COUNT(*), SUM(v)) the hetero and
// fan-out templates share.
type groupSum struct {
	n   int64
	sum float64
}

func groupRows(m map[string]*groupSum, extra ...any) [][]any {
	out := make([][]any, 0, len(m))
	for k, g := range m {
		row := append([]any{k}, extra...)
		out = append(out, append(row, g.n, g.sum))
	}
	return out
}

func addTo(m map[string]*groupSum, k string, v float64) {
	g := m[k]
	if g == nil {
		g = &groupSum{}
		m[k] = g
	}
	g.n++
	g.sum += v
}

func (g *heteroGen) next() stmt {
	d := g.d
	t := g.i % len(heteroTemplates)
	round := g.i / len(heteroTemplates)
	g.i++
	n := len(d.orders)
	even := g.even[t]
	var s stmt
	s.tmpl = t
	var answer [][]any
	switch t {
	case 0:
		th := even.threshold()
		s.params = []types.Value{types.NewFloat(th)}
		m := map[string]*groupSum{}
		for _, o := range d.orders {
			if o.amount < th {
				addTo(m, d.customers[o.cust].segment, o.amount)
			}
		}
		answer = groupRows(m)
	case 1:
		span := n / 2
		lo := g.rng.Intn(n - span + 1)
		s.params = ints(int64(lo), int64(lo+span))
		m := map[string]*groupSum{}
		for _, o := range d.orders[lo : lo+span] {
			addTo(m, regionCode[o.region], o.amount*100)
		}
		answer = groupRows(m, mediatedSite)
	case 2:
		th := even.threshold()
		s.params = []types.Value{types.NewFloat(th)}
		m := map[string]*groupSum{}
		for _, o := range d.orders {
			if o.amount < th {
				addTo(m, o.region, o.amount)
			}
		}
		answer = groupRows(m)
	case 3:
		c := int64(len(d.customers)/5) + int64(even.next()*float64(len(d.customers)/2))
		s.params = ints(c)
		m := map[string]*groupSum{}
		for _, o := range d.orders {
			if o.cust < c {
				addTo(m, o.region, o.amount)
			}
		}
		answer = groupRows(m)
	default:
		region := regions[round%len(regions)]
		th := even.threshold()
		s.params = []types.Value{types.NewString(region), types.NewFloat(th)}
		var hit []order
		for _, o := range d.orders {
			if o.region == region && o.amount < th {
				hit = append(hit, o)
			}
		}
		sort.Slice(hit, func(a, b int) bool {
			if hit[a].amount != hit[b].amount {
				return hit[a].amount > hit[b].amount
			}
			return hit[a].oid < hit[b].oid
		})
		hit = hit[:min(10, len(hit))]
		for _, o := range hit {
			answer = append(answer, []any{o.oid, o.amount})
		}
	}
	// The row count of a grouped answer is only known by evaluating it,
	// so these templates carry their full answer with every statement.
	s.want = int64(len(answer))
	s.full, s.always = func() [][]any { return answer }, true
	return s
}

// ---- wan_fanout: events over 8 remote fragments behind a 5 ms link ----

var fanoutTemplates = []template{
	{name: "fan_agg8", sql: "SELECT region, COUNT(*), SUM(amount) FROM events WHERE amount < ? GROUP BY region"},
	{name: "semijoin_sel", sql: "SELECT c.name, e.oid, e.amount FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id >= ? AND c.id < ?"},
	{name: "range_pruned", sql: "SELECT oid, cust_id, amount FROM events WHERE oid >= ? AND oid < ?"},
}

type fanoutGen struct {
	d     *twoTableData
	rng   *rand.Rand
	even  *evenDraw
	span  int // rows of a range_pruned statement
	custs int // customers of a semijoin_sel statement
	i     int
}

// straddleEvery is how often a range_pruned statement's range crosses a
// fragment boundary and touches two fragments instead of one: every
// fifth, which is the share uniform ranges would give, on every seed.
const straddleEvery = 5

func (g *fanoutGen) next() stmt {
	d := g.d
	t := g.i % len(fanoutTemplates)
	round := g.i / len(fanoutTemplates)
	g.i++
	switch t {
	case 0:
		th := g.even.threshold()
		m := map[string]*groupSum{}
		for _, o := range d.orders {
			if o.amount < th {
				addTo(m, o.region, o.amount)
			}
		}
		answer := groupRows(m)
		return stmt{tmpl: t, params: []types.Value{types.NewFloat(th)}, want: int64(len(answer)),
			full: func() [][]any { return answer }, always: true}
	case 1:
		lo := g.rng.Intn(len(d.customers) - g.custs + 1)
		want := 0
		for c := lo; c < lo+g.custs; c++ {
			want += len(d.byCust[c])
		}
		return stmt{tmpl: t, params: ints(int64(lo), int64(lo+g.custs)), want: int64(want), full: func() [][]any {
			var out [][]any
			for c := lo; c < lo+g.custs; c++ {
				for _, p := range d.byCust[c] {
					out = append(out, []any{d.customers[c].name, d.orders[p].oid, d.orders[p].amount})
				}
			}
			return out
		}}
	default:
		// Inside one fragment, or across the boundary into the next.
		per := (len(d.orders) + fanoutParts - 1) / fanoutParts
		lo := g.rng.Intn(fanoutParts)*per + g.rng.Intn(per-g.span+1)
		if round%straddleEvery == straddleEvery-1 {
			lo = (1+g.rng.Intn(fanoutParts-1))*per - 1 - g.rng.Intn(g.span-1)
		}
		lo = min(lo, len(d.orders)-g.span)
		part := d.orders[lo : lo+g.span]
		return stmt{tmpl: t, params: ints(int64(lo), int64(lo+g.span)), want: int64(g.span), full: func() [][]any {
			out := make([][]any, len(part))
			for i, o := range part {
				out[i] = []any{o.oid, o.cust, o.amount}
			}
			return out
		}}
	}
}

// ---- update_2pc: accounts over 4 remote transactional relstores ----

// Each participant p owns ids [p*partSpan, (p+1)*partSpan). Its initial
// accounts sit at both ends of that range, so an id range straddling the
// boundary between p and p+1 names accounts of exactly two participants
// (the planner prunes fragments by comparing range bounds, not IN
// lists), and inserted rows go to the middle where no transfer reaches.
const (
	partSpan   = 1_000_000
	insertBase = 1000
	// deleteLag is how many rotations an inserted row lives; the fixture
	// preloads that many so the first deletes have something to delete
	// and the table size is steady from the first statement.
	deleteLag = 100
)

type account struct {
	id      int64
	balance float64
}

// genAccounts lays out parts×perPart initial accounts plus the deleteLag
// preloaded inserts, in insertion order per participant.
func genAccounts(seed int64, parts, perPart int) [][]account {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]account, parts)
	for p := range out {
		base := int64(p) * partSpan
		half := perPart / 2
		for i := 0; i < half; i++ {
			out[p] = append(out[p], account{base + int64(i), float64(rng.Intn(40000)) / 4})
		}
		for i := perPart - half; i > 0; i-- {
			out[p] = append(out[p], account{base + partSpan - int64(i), float64(rng.Intn(40000)) / 4})
		}
	}
	for k := 0; k < deleteLag; k++ {
		p := k % parts
		out[p] = append(out[p], account{insertID(parts, k), 0})
	}
	return out
}

// insertID is the id of the k-th inserted row: participants in rotation,
// climbing through the middle of each one's range.
func insertID(parts, k int) int64 {
	return int64(k%parts)*partSpan + insertBase + int64(k/parts)
}

var updateTemplates = []template{
	{name: "insert_routed", write: true, sql: "INSERT INTO accounts (id, balance) VALUES (?, ?)"},
	{name: "delete_pk", write: true, sql: "DELETE FROM accounts WHERE id = ?"},
	{name: "update_1p", write: true, sql: "UPDATE accounts SET balance = balance + ? WHERE id = ?"},
	{name: "update_2pc", write: true, sql: "UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?"},
	{name: "sum_check", sql: "SELECT SUM(balance), COUNT(*) FROM accounts"},
}

// updateGen carries the oracle's model of the accounts table: the
// running total and count, and the balances of the inserted rows still
// to be deleted (oldest first; balances of inserted rows are never
// updated, transfers and update_1p touch initial accounts only).
type updateGen struct {
	rng      *rand.Rand
	parts    int
	perPart  int
	total    float64
	count    int64
	inserted []float64
	deleted  int
	i        int
}

func newUpdateGen(seed int64, parts, perPart int) *updateGen {
	g := &updateGen{rng: rand.New(rand.NewSource(seed + 1)), parts: parts, perPart: perPart,
		inserted: make([]float64, deleteLag)}
	for _, part := range genAccounts(seed, parts, perPart) {
		for _, a := range part {
			g.total += a.balance
			g.count++
		}
	}
	return g
}

// initialID picks one of the initial accounts (never inserted or deleted
// by the workload, so it always exists).
func (g *updateGen) initialID() int64 {
	p := g.rng.Intn(g.parts)
	i := g.rng.Intn(g.perPart)
	half := g.perPart / 2
	if i < half {
		return int64(p)*partSpan + int64(i)
	}
	return int64(p+1)*partSpan - int64(g.perPart-i)
}

func (g *updateGen) next() stmt {
	t := g.i % len(updateTemplates)
	g.i++
	switch t {
	case 0:
		id := insertID(g.parts, g.deleted+len(g.inserted))
		bal := float64(g.rng.Intn(40000)) / 4
		g.inserted = append(g.inserted, bal)
		g.total += bal
		g.count++
		return stmt{tmpl: t, params: []types.Value{types.NewInt(id), types.NewFloat(bal)}, want: 1}
	case 1:
		id := insertID(g.parts, g.deleted)
		g.total -= g.inserted[0]
		g.inserted = g.inserted[1:]
		g.deleted++
		g.count--
		return stmt{tmpl: t, params: ints(id), want: 1}
	case 2:
		d := float64(g.rng.Intn(400)) / 4
		g.total += d
		return stmt{tmpl: t, params: []types.Value{types.NewFloat(d), types.NewInt(g.initialID())}, want: 1}
	case 3:
		// Move x from each of the w accounts just below a participant
		// boundary to each of the w just above it: the total is kept.
		b := int64(1+g.rng.Intn(g.parts-1)) * partSpan
		w := int64(1 + g.rng.Intn(min(4, g.perPart/2)))
		x := float64(1+g.rng.Intn(400)) / 4
		return stmt{tmpl: t, want: 2 * w, params: []types.Value{
			types.NewInt(b), types.NewFloat(x), types.NewFloat(x), types.NewInt(b - w), types.NewInt(b + w)}}
	default:
		total, count := g.total, g.count
		return stmt{tmpl: t, want: 1, full: func() [][]any { return [][]any{{total, count}} }, always: true}
	}
}
