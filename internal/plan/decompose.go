package plan

import (
	"fmt"
	"sort"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// decompose replaces every GlobalScan with per-fragment FragScans
// (unioned when the table has several fragments), translating and
// splitting the scan's filter per fragment capability, and pruning
// fragments whose partition predicate contradicts the filter.
func decompose(n Node, cat *catalog.Catalog, parallel bool) (Node, error) {
	if gs, ok := n.(*GlobalScan); ok {
		return decomposeScan(gs, cat, parallel)
	}
	var err error
	rewriteChildren(n, func(c Node) Node {
		if err != nil {
			return c
		}
		var out Node
		if out, err = decompose(c, cat, parallel); err != nil {
			return c
		}
		return out
	})
	return n, err
}

// decomposeScan builds the fragment plan for one global scan.
func decomposeScan(gs *GlobalScan, cat *catalog.Catalog, parallel bool) (Node, error) {
	tab := gs.Table
	if len(tab.Fragments) == 0 {
		return nil, fmt.Errorf("plan: global table %q has no fragments mapped", tab.Name)
	}
	// Requested output columns over the full global schema.
	requested := gs.Cols
	if requested == nil {
		requested = make([]int, tab.Schema.Len())
		for i := range requested {
			requested[i] = i
		}
	}
	outSchema := gs.Schema()

	var scans []Node
	for _, frag := range tab.Fragments {
		if frag.PruneByPartition(gs.Filter) {
			continue
		}
		fs, err := buildFragScan(cat, tab, frag, requested, gs.Filter, outSchema)
		if err != nil {
			return nil, err
		}
		scans = append(scans, fs)
	}
	if len(scans) == 0 {
		// Every fragment pruned: an empty relation of the right shape.
		return &Values{Out: outSchema}, nil
	}
	if len(scans) == 1 {
		return scans[0], nil
	}
	orderByHealth(scans, cat)
	return &Union{Inputs: scans, All: true, Parallel: parallel}, nil
}

// orderByHealth moves fragments on sources with an open breaker to the
// back of the fan-out (stable, so the catalog's fragment order still
// breaks ties). Healthy fragments start streaming first, and in the
// sequential union a shedding source is only consulted after every
// healthy one has delivered.
func orderByHealth(scans []Node, cat *catalog.Catalog) {
	h := cat.Health()
	healthy := func(n Node) bool {
		fs, ok := n.(*FragScan)
		return !ok || h.Healthy(fs.Frag.Source)
	}
	sort.SliceStable(scans, func(i, j int) bool { return healthy(scans[i]) && !healthy(scans[j]) })
}

// buildFragScan constructs one fragment's scan. Each conjunct of the
// filter is decided once: it goes to the source iff it translates into
// the source's representation and the source evaluates the translation;
// otherwise it stays with the mediator as the query wrote it, to be
// evaluated over translated rows — which is what the predicate means.
// The projection goes to a source that projects; one that does not
// returns whole rows and the scan reads what it needs by position.
func buildFragScan(cat *catalog.Catalog, tab *catalog.GlobalTable, frag *catalog.Fragment,
	requested []int, filter expr.Expr, outSchema *types.Schema) (*FragScan, error) {

	src, err := cat.Source(frag.Source)
	if err != nil {
		return nil, err
	}
	caps, info := src.Capabilities(), frag.Info()
	var conj, pushedBuf, keptBuf [8]expr.Expr
	pushed, kept := pushedBuf[:0], keptBuf[:0]
	for _, c := range expr.AppendConjuncts(conj[:0], filter) {
		if rc, ok := frag.TranslateConjunct(c); ok && caps.CanFilter(info, rc) {
			pushed = append(pushed, rc)
		} else {
			kept = append(kept, c)
		}
	}
	residual := expr.Conjoin(kept)

	// Fetched columns: requested plus whatever the kept filter reads,
	// which is remapped onto that layout.
	fetch, pos := expr.ColumnLayout(tab.Schema.Len(), requested, residual)
	q := &source.Query{Table: frag.RemoteTable, Filter: expr.Conjoin(pushed), Limit: -1}
	if caps.Project {
		q.Columns = frag.RemoteCols(fetch)
	}

	// Output projection within the fetched layout.
	out := make([]int, len(requested))
	for i, c := range requested {
		out[i] = pos[c]
	}

	return &FragScan{
		Src:            src,
		Frag:           frag,
		Query:          q,
		Cols:           fetch,
		GlobalResidual: expr.Remap(residual, pos),
		Out:            out,
		GlobalSchema:   tab.Schema,
		OutSchema:      outSchema,
	}, nil
}

// The two constants of the strategy choice: a left input estimated at
// fewKeys rows or fewer ships its keys whatever the estimates say (one
// small IN list per right fragment); above it, the semijoin must be
// estimated to move less than semiJoinGain of the rows that shipping
// both sides whole would.
const (
	fewKeys      = 64
	semiJoinGain = 0.8
)

// chooseStrategies assigns a distributed execution strategy to every
// auto-strategy join whose right side is remote. forced overrides the
// cost decision when not StrategyAuto.
func chooseStrategies(n Node, forced Strategy) Node {
	rewriteChildren(n, func(c Node) Node { return chooseStrategies(c, forced) })
	j, ok := n.(*Join)
	if !ok || j.Strategy != StrategyAuto {
		return n
	}
	if len(j.EquiL) == 0 {
		j.Strategy = StrategyShipAll
		return j
	}
	rights := FragScans(j.R)
	if len(rights) == 0 {
		j.Strategy = StrategyShipAll
		return j
	}
	// The right side must accept the join key remotely on every
	// fragment for the semijoin to be legal.
	for _, fs := range rights {
		if _, ok := fs.CanBindOn(j.EquiR[0]); !ok {
			j.Strategy = StrategyShipAll
			return j
		}
	}
	if forced != StrategyAuto {
		j.Strategy = forced
		return j
	}
	estL, estR := EstimateRows(j.L), EstimateRows(j.R)
	estJoin := EstimateRows(j)
	matchedR := estJoin
	if matchedR > estR {
		matchedR = estR
	}
	if estL <= fewKeys || estL+matchedR < semiJoinGain*(estL+estR) {
		j.Strategy = StrategySemiJoin
	} else {
		j.Strategy = StrategyShipAll
	}
	return j
}
