package plan

import (
	"fmt"

	"gis/internal/catalog"
	"gis/internal/expr"
)

// decompose replaces every GlobalScan with per-fragment FragScans
// (unioned when the table has several fragments), splitting the scan's
// filter per fragment (catalog.Fragment.Split) and leaving out the
// fragments that hold no row it passes.
func decompose(n Node, cat *catalog.Catalog, parallel bool) (Node, error) {
	if gs, ok := n.(*GlobalScan); ok {
		return decomposeScan(gs, cat, parallel)
	}
	var err error
	EachInput(n, func(in *Node) {
		if err == nil {
			*in, err = decompose(*in, cat, parallel)
		}
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
		fs, err := buildFragScan(cat, tab, frag, requested, gs.Filter, outSchema)
		if err != nil {
			return nil, err
		}
		if fs != nil {
			scans = append(scans, fs)
		}
	}
	if len(scans) == 0 {
		// Every fragment pruned: an empty relation of the right shape.
		return &Values{Out: outSchema}, nil
	}
	if len(scans) == 1 {
		return scans[0], nil
	}
	return &Union{Inputs: scans, All: true, Parallel: parallel}, nil
}

// chooseStrategies records every join's equi keys and assigns a
// distributed execution strategy to every auto-strategy join whose right
// side is remote. forced overrides the cost decision when not
// StrategyAuto.
func chooseStrategies(n Node, forced Strategy) Node {
	EachInput(n, func(in *Node) { *in = chooseStrategies(*in, forced) })
	j, ok := n.(*Join)
	if !ok {
		return n
	}
	j.setEquiKeys()
	if j.Strategy != StrategyAuto {
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
		if _, ok := fs.canBindOn(j.EquiR[0]); !ok {
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

// setEquiKeys finds the equality conjuncts of j's condition that compare
// a column of each side, and records their positions for the hash join
// and for the strategy chooser.
func (j *Join) setEquiKeys() {
	lw := j.L.Schema().Len()
	var conj [8]expr.Expr
	for _, c := range expr.AppendConjuncts(conj[:0], j.Cond) {
		lc, rc, ok := columnEquality(c)
		switch {
		case !ok:
		case lc.Index < lw && rc.Index >= lw:
			j.EquiL = append(j.EquiL, lc.Index)
			j.EquiR = append(j.EquiR, rc.Index-lw)
		case rc.Index < lw && lc.Index >= lw:
			j.EquiL = append(j.EquiL, rc.Index)
			j.EquiR = append(j.EquiR, lc.Index-lw)
		}
	}
}
