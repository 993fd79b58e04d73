package plan

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gis/internal/catalog"
	"gis/internal/sql"
	"gis/internal/types"
)

// chainGraph builds R0 - R1 - ... - Rn-1 with the given sizes.
func chainGraph(sizes []float64, sel float64) ([]RelInfo, []PredInfo) {
	rels := make([]RelInfo, len(sizes))
	for i, s := range sizes {
		rels[i] = RelInfo{Rows: s}
	}
	var preds []PredInfo
	for i := 0; i+1 < len(sizes); i++ {
		preds = append(preds, PredInfo{A: i, B: i + 1, Sel: sel})
	}
	return rels, preds
}

// starGraph joins every satellite to relation 0.
func starGraph(hub float64, satellites []float64, sel float64) ([]RelInfo, []PredInfo) {
	rels := []RelInfo{{Rows: hub}}
	var preds []PredInfo
	for i, s := range satellites {
		rels = append(rels, RelInfo{Rows: s})
		preds = append(preds, PredInfo{A: 0, B: i + 1, Sel: sel})
	}
	return rels, preds
}

func validPerm(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("order %v has %d entries, want %d", order, len(order), n)
	}
	seen := make([]bool, n)
	for _, r := range order {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[r] = true
	}
}

func TestOrderSearchDegenerate(t *testing.T) {
	if res := OrderSearch(nil, nil, OrderDP); len(res.Order) != 0 {
		t.Error("empty graph")
	}
	res := OrderSearch([]RelInfo{{Rows: 5}}, nil, OrderDP)
	if len(res.Order) != 1 || res.Cost != 0 {
		t.Errorf("single relation = %+v", res)
	}
}

func TestOrderSearchDPBeatsOrEqualsOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = float64(1 + rng.Intn(100000))
		}
		var rels []RelInfo
		var preds []PredInfo
		if trial%2 == 0 {
			rels, preds = chainGraph(sizes, 1/float64(1+rng.Intn(1000)))
		} else {
			rels, preds = starGraph(sizes[0], sizes[1:], 1/float64(1+rng.Intn(1000)))
		}
		dp := OrderSearch(rels, preds, OrderDP)
		greedy := OrderSearch(rels, preds, OrderGreedy)
		syn := OrderSearch(rels, preds, OrderSyntactic)
		validPerm(t, dp.Order, n)
		validPerm(t, greedy.Order, n)
		validPerm(t, syn.Order, n)
		// DP is optimal under the model: never worse than the others.
		const eps = 1e-6
		if dp.Cost > greedy.Cost*(1+eps) {
			t.Errorf("trial %d: DP cost %g > greedy %g", trial, dp.Cost, greedy.Cost)
		}
		if dp.Cost > syn.Cost*(1+eps) {
			t.Errorf("trial %d: DP cost %g > syntactic %g", trial, dp.Cost, syn.Cost)
		}
		// Reported cost matches recomputation.
		if got := orderCost(rels, preds, dp.Order); got != dp.Cost {
			t.Errorf("trial %d: DP cost %g but recomputed %g", trial, dp.Cost, got)
		}
	}
}

func TestOrderSearchChainIntuition(t *testing.T) {
	// Chain small - huge - small: a good order avoids materializing the
	// huge middle against everything.
	rels, preds := chainGraph([]float64{10, 1e6, 10}, 1e-6)
	dp := OrderSearch(rels, preds, OrderDP)
	syn := OrderSearch(rels, preds, OrderSyntactic)
	if dp.Cost > syn.Cost {
		t.Errorf("DP %g should not exceed syntactic %g", dp.Cost, syn.Cost)
	}
}

func TestOrderSearchDPFallsBackPastLimit(t *testing.T) {
	sizes := make([]float64, dpMaxRelations+2)
	for i := range sizes {
		sizes[i] = float64(100 * (i + 1))
	}
	rels, preds := chainGraph(sizes, 0.001)
	res := OrderSearch(rels, preds, OrderDP)
	validPerm(t, res.Order, len(sizes))
}

func TestOrderGreedyStartsSmallest(t *testing.T) {
	rels, preds := starGraph(1e6, []float64{50, 10, 1000}, 0.001)
	res := OrderSearch(rels, preds, OrderGreedy)
	if rels[res.Order[0]].Rows != 10 {
		t.Errorf("greedy first pick = %v (rows %g)", res.Order[0], rels[res.Order[0]].Rows)
	}
}

func TestConnectedAvoidsCrossProducts(t *testing.T) {
	// Two joinable pairs with no cross predicates: (0-1), (2-3).
	rels := []RelInfo{{Rows: 10}, {Rows: 20}, {Rows: 30}, {Rows: 40}}
	preds := []PredInfo{{A: 0, B: 1, Sel: 0.01}, {A: 2, B: 3, Sel: 0.01}}
	res := OrderSearch(rels, preds, OrderDP)
	validPerm(t, res.Order, 4)
	if res.Cost <= 0 {
		t.Errorf("cost = %g", res.Cost)
	}
}

// TestJoinReadingsAgree: the join-order search and the row estimate
// price a join alike. Over a chain of two binary equi conjuncts on the
// fragment scans the search reads — filters pushed, columns pruned,
// scans decomposed, as Optimize hands it the plan — the C_out cost
// OrderSearch reports for the order it chose is the sum of EstimateRows
// over the joins of the tree rebuildJoinTree builds in that order. The
// filter on customers makes a join of it with orders estimated at fewer
// rows than orders.oid has values; both readings take a column's NDV
// from the scan that holds it.
func TestJoinReadingsAgree(t *testing.T) {
	cat := newBenchCatalog(t)
	var joins func(Node) float64
	joins = func(n Node) float64 {
		var sum float64
		if j, ok := n.(*Join); ok {
			sum = EstimateRows(j)
		}
		for _, c := range n.Children() {
			sum += joins(c)
		}
		return sum
	}
	for _, where := range []string{"", " WHERE c.id < 2"} {
		sel, err := sql.ParseSelect("SELECT c.name, o.amount, e.region FROM customers c " +
			"JOIN orders o ON c.id = o.cust_id JOIN events e ON o.oid = e.oid" + where)
		if err != nil {
			t.Fatal(err)
		}
		logical, err := NewBuilder(cat).BuildSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		decomposed, err := decompose(pruneColumns(pushDownFilters(logical)), cat, true)
		if err != nil {
			t.Fatal(err)
		}
		rels, preds := flattenJoins(findJoin(decomposed))
		if len(rels) != 3 || len(preds) != 2 {
			t.Fatalf("flattened into %d relations and %d predicates, want 3 and 2", len(rels), len(preds))
		}
		for _, algo := range []JoinOrderAlgo{OrderDP, OrderGreedy, OrderSyntactic} {
			res := searchOrder(rels, preds, algo)
			tree, _ := rebuildJoinTree(rels, preds, res.Order)
			got := joins(tree)
			t.Logf("%q %-9s order %v: cost %g, joins estimated at %g rows", where, algo, res.Order, res.Cost, got)
			if res.Cost <= 0 || math.Abs(got-res.Cost) > 1e-9*res.Cost {
				t.Errorf("%q %s order %v: the search costs it %g, EstimateRows sums its joins to %g", where, algo, res.Order, res.Cost, got)
			}
		}
	}
}

// TestJoinOrderReadsFragmentEstimates: the search prices each relation
// at the estimate of the fragment scan it is decomposed into. Global
// r(c, a) maps a onto remote column 0 of rel.t1 and c onto remote column
// 2, so r.a = 5 keeps one of t1's 100 rows; read with global column
// positions, t1's statistics would price it at 1/NDV of remote column 1
// (3 values), a third of the table, and DP would join r last. With the
// scan priced at its one row, r is joined first.
func TestJoinOrderReadsFragmentEstimates(t *testing.T) {
	cat := newPlanFixture(t)
	ctx := context.Background()
	if err := cat.DefineTable("r", types.NewSchema(
		types.Column{Name: "c", Type: types.KindFloat},
		types.Column{Name: "a", Type: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(ctx, "r", &catalog.Fragment{Source: "rel", RemoteTable: "t1",
		Columns: []catalog.ColumnMapping{{RemoteCol: 2}, {RemoteCol: 0}}}); err != nil {
		t.Fatal(err)
	}
	t1, _ := cat.Table("t1")
	r, _ := cat.Table("r")
	r.Fragments[0].SetStats(t1.Fragments[0].Stats())

	const q = "SELECT r.c, t2.d, big.v FROM big JOIN t2 ON big.k = t2.d JOIN r ON r.a = t2.a WHERE r.a = 5"
	isR := func(n Node) bool { fs, ok := n.(*FragScan); return ok && fs.Query.Table == "t1" }

	// The rows the search reads for r are its fragment scan's estimate.
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	logical, err := NewBuilder(cat).BuildSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	decomposed, err := decompose(pruneColumns(pushDownFilters(logical)), cat, true)
	if err != nil {
		t.Fatal(err)
	}
	rels, preds := flattenJoins(findJoin(decomposed))
	res := searchOrder(rels, preds, OrderDP)
	i := slices.IndexFunc(rels, func(rel flatRel) bool { return isR(rel.node) })
	if i < 0 {
		t.Fatalf("no fragment scan of r among the chain's relations:\n%s", Explain(decomposed))
	}
	if est := EstimateRows(rels[i].node); rels[i].rows != est || est != 1 {
		t.Errorf("the search reads r at %g rows, its fragment scan is estimated at %g, want 1", rels[i].rows, est)
	}
	if !slices.Contains(res.Order[:2], i) {
		t.Errorf("DP order %v joins r (relation %d) after the lowest join", res.Order, i)
	}

	// And the optimized plan joins it first.
	p := planQuery(t, cat, q, nil)
	lowest := findJoin(p)
	for l, ok := lowest.L.(*Join); ok; l, ok = lowest.L.(*Join) {
		lowest = l
	}
	if !isR(lowest.L) && !isR(lowest.R) {
		t.Errorf("r's fragment scan is not in the lowest join:\n%s", Explain(p))
	}
	if s := p.Schema(); s.Len() != 3 || s.Columns[0].Name != "c" || s.Columns[1].Name != "d" || s.Columns[2].Name != "v" {
		t.Errorf("output schema = %v", s)
	}
}

// TestJoinChainIsSearchedWhole: a chain of four inner joined relations
// is flattened once, at its root, and searched as one: the plan under the
// select list's Project is one left-deep chain of three joins, with no
// Project between them that a search of the lower three alone would
// have left there.
func TestJoinChainIsSearchedWhole(t *testing.T) {
	cat := newPlanFixture(t)
	p := planQuery(t, cat, "SELECT t1.b, t2.d, big.v, x.c FROM t1 JOIN t2 ON t1.a = t2.a "+
		"JOIN big ON t2.a = big.k JOIN t1 x ON x.a = big.k", nil)
	proj, ok := p.(*Project)
	if !ok {
		t.Fatalf("want the select list's Project on top:\n%s", Explain(p))
	}
	j, ok := proj.Input.(*Join)
	if !ok || chainLen(j) != 4 {
		t.Fatalf("want one chain of four relations under the Project:\n%s", Explain(p))
	}
	for ; ok; j, ok = j.L.(*Join) {
		if _, nested := j.R.(*Join); nested {
			t.Fatalf("the chain is not left-deep:\n%s", Explain(p))
		}
	}
	if s := p.Schema(); s.Len() != 4 || s.Columns[0].Name != "b" || s.Columns[3].Name != "c" {
		t.Errorf("output schema = %v", s)
	}
}
