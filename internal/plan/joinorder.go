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
		order := identityMapping(n)
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

// orderJoins reorders each maximal chain of three inner joined
// relations or more with the configured algorithm. It runs over the
// decomposed plan, so the search prices fragment scans and their unions
// as EstimateRows does everywhere else.
func orderJoins(n Node, algo JoinOrderAlgo) Node {
	if algo == OrderSyntactic {
		return n
	}
	return inOrder(chooseJoinOrder(n, algo))
}

// chooseJoinOrder reorders the chains in n and returns it, with where
// each of n's output columns went, as prune does; nil when none moved. A
// chain is flattened once, at its root, and the relations it collects
// are searched in turn. A node over inputs whose columns moved reads
// them where they are: a Project or Aggregate remaps its expressions and
// its output stands, a Filter, Sort or Limit remaps its own and passes
// the mapping on, and so does a join, for the concatenation of its
// inputs'. A Union's arms and the plan's root are put back in order.
func chooseJoinOrder(n Node, algo JoinOrderAlgo) (Node, []int) {
	if j, ok := n.(*Join); ok && chainLen(j) >= 3 {
		return reorderChain(j, algo)
	}
	var m []int
	off := 0
	EachInput(n, func(in *Node) {
		var im []int
		*in, im = chooseJoinOrder(*in, algo)
		if _, union := n.(*Union); union {
			*in, im = inOrder(*in, im), nil
		}
		w := (*in).Schema().Len()
		m = appendMapping(m, im, off, off, w)
		off += w
	})
	if m == nil {
		return n, nil
	}
	eachExpr(n, func(e *expr.Expr) { *e = expr.Remap(*e, m) })
	switch t := n.(type) {
	case *Project, *Aggregate:
		return n, nil
	case *Join:
		t.schema = nil
	default:
		// Filter, Sort and Limit: their rows are their input's.
	}
	return n, m
}

// inOrder puts the columns of n, which m took elsewhere, back where they
// were; n itself when m is nil.
func inOrder(n Node, m []int) Node {
	if m == nil {
		return n
	}
	return columnsAt(n, m)
}

// chainLen counts the relations of the inner-join chain rooted at n: 1
// when n is no inner join.
func chainLen(n Node) int {
	if j, ok := n.(*Join); ok && j.Kind == JoinInner {
		return chainLen(j.L) + chainLen(j.R)
	}
	return 1
}

// reorderChain searches the order of the chain rooted at j, after the
// chains below its relations, and rebuilds it in that order. It returns
// the rebuilt chain and where each column of j's output went in it; nil
// when none moved.
func reorderChain(j *Join, algo JoinOrderAlgo) (Node, []int) {
	rels, preds := flattenJoins(j)
	// moved takes a column of the chain to where a reordering inside
	// its relation took it.
	var moved []int
	for i := range rels {
		var m []int
		rels[i].node, m = chooseJoinOrder(rels[i].node, algo)
		w := rels[i].node.Schema().Len()
		moved = appendMapping(moved, m, rels[i].offset, rels[i].offset, w)
	}
	if moved != nil {
		for i := range preds {
			preds[i].e = expr.Remap(preds[i].e, moved)
		}
	}
	res := searchOrder(rels, preds, algo)
	tree, remap := rebuildJoinTree(rels, preds, res.Order)
	if moved != nil {
		for i, c := range moved {
			moved[i] = remap[c]
		}
		remap = moved
	}
	for i, c := range remap {
		if c != i {
			return tree, remap
		}
	}
	return tree, nil
}

// searchOrder runs OrderSearch over a flattened chain, each relation at
// its row estimate and each predicate between two at joinSel: the
// numbers EstimateRows reads off the joins rebuildJoinTree builds.
func searchOrder(rels []flatRel, preds []flatPred, algo JoinOrderAlgo) SearchResult {
	infos := make([]RelInfo, len(rels))
	for i := range rels {
		rels[i].rows = EstimateRows(rels[i].node)
		infos[i] = RelInfo{Rows: rels[i].rows}
	}
	var pinfos []PredInfo
	for _, p := range preds {
		if len(p.rels) == 2 {
			pinfos = append(pinfos, PredInfo{A: p.rels[0], B: p.rels[1], Sel: joinSel(p.e, rels)})
		}
	}
	return OrderSearch(infos, pinfos, algo)
}

// flatRel is one relation under a join: a leaf of a flattened join
// chain, or one side of a single join (EstimateRows).
type flatRel struct {
	node   Node
	offset int     // column offset in the original concatenated schema
	rows   float64 // EstimateRows(node)
}

// flatPred is one conjunct with the relations it touches.
type flatPred struct {
	e    expr.Expr // bound over the original concatenated schema
	rels []int
}

// flattenJoins linearizes a tree of inner joins into relations and
// predicates over the original concatenated column space.
func flattenJoins(j *Join) ([]flatRel, []flatPred) {
	var rels []flatRel
	var preds []flatPred
	width := 0 // of the relations collected so far
	var walk func(n Node)
	walk = func(n Node) {
		jn, ok := n.(*Join)
		if !ok || jn.Kind != JoinInner {
			rels = append(rels, flatRel{node: n, offset: width})
			width += n.Schema().Len()
			return
		}
		base := width
		walk(jn.L)
		walk(jn.R)
		var conj [8]expr.Expr
		for _, c := range expr.AppendConjuncts(conj[:0], jn.Cond) {
			// The condition is bound over this join's local
			// concatenated schema; shift to the global space.
			preds = append(preds, flatPred{e: expr.Shift(c, base)})
		}
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

// rebuildJoinTree constructs a left-deep join tree in the given order,
// attaching every predicate at the lowest join where its inputs are
// available. remap takes each column of the original concatenated
// schema to its position in the tree's output.
func rebuildJoinTree(rels []flatRel, preds []flatPred, order []int) (Node, []int) {
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
	return cur, remap
}
