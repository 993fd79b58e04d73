package plan

import (
	"math"
	"math/bits"

	"gis/internal/expr"
)

// JoinOrderAlgo selects the join-order search algorithm.
type JoinOrderAlgo uint8

// Join ordering algorithms.
const (
	// OrderDP is exhaustive dynamic programming over connected
	// subsets (left-deep), optimal under the cost model.
	OrderDP JoinOrderAlgo = iota
	// OrderGreedy grows the join left-deep, always picking the next
	// relation that minimizes the intermediate result.
	OrderGreedy
	// OrderSyntactic keeps the order the query was written in.
	OrderSyntactic
)

func (a JoinOrderAlgo) String() string {
	switch a {
	case OrderDP:
		return "dp"
	case OrderGreedy:
		return "greedy"
	case OrderSyntactic:
		return "syntactic"
	default:
		return "unknown"
	}
}

// dpMaxRelations bounds the DP search; larger join graphs fall back to
// greedy.
const dpMaxRelations = 12

// RelInfo describes one relation for the abstract order search.
type RelInfo struct {
	Rows float64
}

// PredInfo is one join predicate between two relations with its
// estimated selectivity.
type PredInfo struct {
	A, B int
	Sel  float64
}

// SearchResult reports the chosen order and its estimated cost (sum of
// intermediate result cardinalities — the classic C_out metric).
type SearchResult struct {
	Order []int
	Cost  float64
	// Considered counts candidate partial plans whose cost was
	// evaluated, feeding the plan.joinorder.considered metric.
	Considered int64
}

// OrderSearch runs the selected join-order algorithm on an abstract join
// graph. Exported so the evaluation harness can measure plan quality and
// optimization time on synthetic graphs (experiment F3).
func OrderSearch(rels []RelInfo, preds []PredInfo, algo JoinOrderAlgo) SearchResult {
	n := len(rels)
	if n == 0 {
		return SearchResult{}
	}
	if n == 1 {
		return SearchResult{Order: []int{0}, Cost: 0}
	}
	if algo == OrderDP && n > dpMaxRelations {
		algo = OrderGreedy
	}
	var res SearchResult
	switch algo {
	case OrderDP:
		res = orderDP(rels, preds)
	case OrderGreedy:
		res = orderGreedy(rels, preds)
	default:
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		res = SearchResult{Order: order, Cost: orderCost(rels, preds, order), Considered: 1}
	}
	return res
}

// cardOf estimates the cardinality of joining the relation set S (bitmask).
func cardOf(rels []RelInfo, preds []PredInfo, s uint64) float64 {
	card := 1.0
	for i := range rels {
		if s&(1<<uint(i)) != 0 {
			card *= math.Max(rels[i].Rows, 1)
		}
	}
	for _, p := range preds {
		if s&(1<<uint(p.A)) != 0 && s&(1<<uint(p.B)) != 0 {
			card *= p.Sel
		}
	}
	return card
}

// orderCost computes the C_out cost of a specific left-deep order.
func orderCost(rels []RelInfo, preds []PredInfo, order []int) float64 {
	var cost float64
	var s uint64
	for k, r := range order {
		s |= 1 << uint(r)
		if k >= 1 {
			cost += cardOf(rels, preds, s)
		}
	}
	return cost
}

// connected reports whether relation r joins against any member of set s.
func connected(preds []PredInfo, s uint64, r int) bool {
	for _, p := range preds {
		if (p.A == r && s&(1<<uint(p.B)) != 0) || (p.B == r && s&(1<<uint(p.A)) != 0) {
			return true
		}
	}
	return false
}

func orderDP(rels []RelInfo, preds []PredInfo) SearchResult {
	n := len(rels)
	full := uint64(1)<<uint(n) - 1
	const inf = math.MaxFloat64
	cost := make([]float64, full+1)
	last := make([]int8, full+1)
	var considered int64
	for s := uint64(1); s <= full; s++ {
		if bits.OnesCount64(s) == 1 {
			cost[s] = 0
			last[s] = int8(bits.TrailingZeros64(s))
			continue
		}
		cost[s] = inf
		// Prefer connected extensions; fall back to cross products only
		// when the subset has no connected order.
		for pass := 0; pass < 2 && cost[s] == inf; pass++ {
			for i := 0; i < n; i++ {
				bit := uint64(1) << uint(i)
				if s&bit == 0 {
					continue
				}
				rest := s &^ bit
				if cost[rest] == inf {
					continue
				}
				if pass == 0 && bits.OnesCount64(rest) >= 1 && !connected(preds, rest, i) {
					continue
				}
				considered++
				c := cost[rest] + cardOf(rels, preds, s)
				if c < cost[s] {
					cost[s] = c
					last[s] = int8(i)
				}
			}
		}
	}
	// Reconstruct the order.
	order := make([]int, 0, n)
	for s := full; s != 0; {
		i := int(last[s])
		order = append(order, i)
		s &^= 1 << uint(i)
	}
	// Reverse into join order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return SearchResult{Order: order, Cost: cost[full], Considered: considered}
}

func orderGreedy(rels []RelInfo, preds []PredInfo) SearchResult {
	n := len(rels)
	// Start with the smallest relation.
	start := 0
	for i := 1; i < n; i++ {
		if rels[i].Rows < rels[start].Rows {
			start = i
		}
	}
	order := []int{start}
	s := uint64(1) << uint(start)
	var considered int64
	for len(order) < n {
		best, bestCard := -1, math.MaxFloat64
		// Prefer connected candidates.
		for pass := 0; pass < 2 && best < 0; pass++ {
			for i := 0; i < n; i++ {
				bit := uint64(1) << uint(i)
				if s&bit != 0 {
					continue
				}
				if pass == 0 && !connected(preds, s, i) {
					continue
				}
				considered++
				card := cardOf(rels, preds, s|bit)
				if card < bestCard {
					best, bestCard = i, card
				}
			}
		}
		order = append(order, best)
		s |= 1 << uint(best)
	}
	return SearchResult{Order: order, Cost: orderCost(rels, preds, order), Considered: considered}
}

// ---- plan-tree integration ----

// chooseJoinOrder finds maximal inner-join chains in the plan and
// reorders them with the configured algorithm.
func chooseJoinOrder(n Node, algo JoinOrderAlgo) Node {
	rewriteChildren(n, func(c Node) Node { return chooseJoinOrder(c, algo) })
	j, ok := n.(*Join)
	if !ok || j.Kind != JoinInner {
		return n
	}
	rels, preds := flattenJoins(j)
	if len(rels) < 3 || algo == OrderSyntactic {
		return n
	}
	// Recurse into the collected relations themselves (they may contain
	// nested join chains below barriers).
	for i := range rels {
		rels[i].node = chooseJoinOrder(rels[i].node, algo)
	}
	infos := make([]RelInfo, len(rels))
	for i, r := range rels {
		infos[i] = RelInfo{Rows: EstimateRows(r.node)}
	}
	var pinfos []PredInfo
	for _, p := range preds {
		if len(p.rels) == 2 {
			pinfos = append(pinfos, PredInfo{A: p.rels[0], B: p.rels[1], Sel: p.sel})
		}
	}
	res := OrderSearch(infos, pinfos, algo)
	return rebuildJoinTree(rels, preds, res.Order)
}

// flatRel is one leaf of a flattened join chain.
type flatRel struct {
	node   Node
	offset int // column offset in the original concatenated schema
}

// flatPred is one conjunct with the relations it touches.
type flatPred struct {
	e    expr.Expr // bound over the original concatenated schema
	rels []int
	sel  float64
}

// flattenJoins linearizes a tree of inner joins into relations and
// predicates over the original concatenated column space.
func flattenJoins(j *Join) ([]flatRel, []flatPred) {
	var rels []flatRel
	var preds []flatPred
	var walk func(n Node) int // returns width
	walk = func(n Node) int {
		if jn, ok := n.(*Join); ok && jn.Kind == JoinInner {
			base := 0
			if len(rels) > 0 {
				last := rels[len(rels)-1]
				base = last.offset + last.node.Schema().Len()
			}
			lw := walk(jn.L)
			rw := walk(jn.R)
			if jn.Cond != nil {
				var conj [8]expr.Expr
				for _, c := range expr.AppendConjuncts(conj[:0], jn.Cond) {
					// The condition is bound over this join's local
					// concatenated schema; shift to the global space.
					preds = append(preds, flatPred{e: expr.Shift(c, base)})
				}
			}
			return lw + rw
		}
		off := 0
		if len(rels) > 0 {
			last := rels[len(rels)-1]
			off = last.offset + last.node.Schema().Len()
		}
		rels = append(rels, flatRel{node: n, offset: off})
		return n.Schema().Len()
	}
	walk(j)
	// Annotate predicates with the relations they reference.
	touched := make([]bool, len(rels))
	for i := range preds {
		clear(touched)
		expr.Columns(preds[i].e, func(col int) { touched[relOf(rels, col)] = true })
		for r, ok := range touched {
			if ok {
				preds[i].rels = append(preds[i].rels, r)
			}
		}
		preds[i].sel = predSelectivity(preds[i].e, rels)
	}
	return rels, preds
}

func relOf(rels []flatRel, col int) int {
	for i := len(rels) - 1; i >= 0; i-- {
		if col >= rels[i].offset {
			return i
		}
	}
	return 0
}

// predSelectivity estimates a join predicate's selectivity: equi joins
// via NDV when scans expose statistics, defaults otherwise.
func predSelectivity(e expr.Expr, rels []flatRel) float64 {
	b, ok := e.(*expr.Binary)
	if !ok {
		return 1.0 / 3
	}
	if b.Op != expr.OpEq {
		return 1.0 / 3
	}
	lc, lok := b.L.(*expr.ColRef)
	rc, rok := b.R.(*expr.ColRef)
	if !lok || !rok {
		return 0.1
	}
	ndv := func(c *expr.ColRef) float64 {
		ri := relOf(rels, c.Index)
		return childColumnNDV(rels[ri].node, c.Index-rels[ri].offset)
	}
	m := math.Max(ndv(lc), ndv(rc))
	if m < 1 {
		return 0.01
	}
	return 1 / m
}

// rebuildJoinTree constructs a left-deep join tree in the given order,
// attaching every predicate at the lowest join where its inputs are
// available, and restores the original output column order with a final
// projection.
func rebuildJoinTree(rels []flatRel, preds []flatPred, order []int) Node {
	// Column remapping: original global index → new global index.
	newOffsets := make([]int, len(rels))
	total := 0
	for _, r := range order {
		newOffsets[r] = total
		total += rels[r].node.Schema().Len()
	}
	remap := make([]int, total)
	for ri, r := range rels {
		w := r.node.Schema().Len()
		for c := 0; c < w; c++ {
			remap[r.offset+c] = newOffsets[ri] + c
		}
	}

	attached := make([]bool, len(preds))
	inSet := make([]bool, len(rels))
	inSet[order[0]] = true
	cur := rels[order[0]].node
	for k := 1; k < len(order); k++ {
		r := order[k]
		inSet[r] = true
		var conds []expr.Expr
		for pi, p := range preds {
			if attached[pi] {
				continue
			}
			all := true
			for _, pr := range p.rels {
				if !inSet[pr] {
					all = false
					break
				}
			}
			if all {
				conds = append(conds, expr.Remap(p.e, remap))
				attached[pi] = true
			}
		}
		cur = &Join{Kind: JoinInner, Cond: expr.Conjoin(conds), L: cur, R: rels[r].node}
	}
	// Leftover predicates (should not happen) become a filter.
	var leftover []expr.Expr
	for pi, p := range preds {
		if !attached[pi] {
			leftover = append(leftover, expr.Remap(p.e, remap))
		}
	}
	if len(leftover) > 0 {
		cur = &Filter{Pred: expr.Conjoin(leftover), Input: cur}
	}
	// Restore original column order.
	exprs := make([]expr.Expr, total)
	names := make([]string, total)
	outSchema := cur.Schema()
	for orig, nw := range remap {
		col := outSchema.Columns[nw]
		ref := expr.NewBoundColRef(nw, col.Type, col.Name)
		ref.Table = col.Table
		exprs[orig] = ref
		names[orig] = col.Name
	}
	return &Project{Exprs: exprs, Names: names, Input: cur}
}
