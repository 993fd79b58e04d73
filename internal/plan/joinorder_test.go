package plan

import (
	"math"
	"math/rand"
	"testing"

	"gis/internal/sql"
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
// price a join alike. Over a chain of two binary equi conjuncts on scans
// with statistics, the C_out cost OrderSearch reports for the order it
// chose is the sum of EstimateRows over the joins of the tree
// rebuildJoinTree builds in that order. The filter on customers makes a
// join of it with orders estimated at fewer rows than orders.oid has
// values; both readings take a column's NDV from the scan that holds it.
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
		rels, preds := flattenJoins(findJoin(pushDownFilters(logical)))
		if len(rels) != 3 || len(preds) != 2 {
			t.Fatalf("flattened into %d relations and %d predicates, want 3 and 2", len(rels), len(preds))
		}
		for _, algo := range []JoinOrderAlgo{OrderDP, OrderGreedy, OrderSyntactic} {
			res := searchOrder(rels, preds, algo)
			got := joins(rebuildJoinTree(rels, preds, res.Order))
			t.Logf("%q %-9s order %v: cost %g, joins estimated at %g rows", where, algo, res.Order, res.Cost, got)
			if res.Cost <= 0 || math.Abs(got-res.Cost) > 1e-9*res.Cost {
				t.Errorf("%q %s order %v: the search costs it %g, EstimateRows sums its joins to %g", where, algo, res.Order, res.Cost, got)
			}
		}
	}
}
