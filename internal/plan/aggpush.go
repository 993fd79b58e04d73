package plan

import (
	"slices"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// pushAggregates sinks aggregation into the fragment scans under it,
// through the column mapping (DESIGN.md "An aggregate pushes through the
// mapping"): each source groups by the remote columns behind the keys
// and folds remote values, and the mediator maps each row it answers up
// (FragScan.Pos, FragScan.Aggs). A final Aggregate combines the partials
// of a union's fragments, or merges groups whose remote keys read as one
// global key; a single fragment without such keys is answered by its
// scan alone. Every fragment takes its share, or none does.
func pushAggregates(n Node) Node {
	EachInput(n, func(in *Node) { *in = pushAggregates(*in) })
	agg, ok := n.(*Aggregate)
	if !ok || len(agg.GroupBy)+len(agg.Aggs) == 0 {
		// An aggregation with neither keys nor aggregates (SELECT 1 FROM
		// t HAVING ...) is one row whatever it reads; the sub-query IR
		// cannot say that, so it stays at the mediator.
		return n
	}
	var scans []*FragScan
	if fs, single := agg.Input.(*FragScan); single {
		one := [1]*FragScan{fs}
		scans = one[:]
	} else if scans = FragScans(agg.Input); scans == nil {
		return n
	}
	if out := pushAggregate(agg, scans); out != nil {
		return out
	}
	return n
}

// aggPushes reports whether fs's source may take its share of agg, and
// whether two of the groups it answers may then read as one global
// group. A coerced key stays at the mediator, whose conversion may fail
// on a row and not on a group, and so does a set of keys that are all
// constants: the source, grouping by nothing, would answer one row where
// it holds none.
func aggPushes(agg *Aggregate, fs *FragScan) (ok, merges bool) {
	if !fs.acceptsAggregate() {
		return false, false
	}
	shipped := false
	for _, e := range agg.GroupBy {
		m, _ := fs.column(e)
		if m == nil || m.Retyped() {
			return false, false
		}
		merges = merges || !m.Injective()
		shipped = shipped || m.Const == nil
	}
	if len(agg.GroupBy) > 0 && !shipped {
		return false, false
	}
	for _, a := range agg.Aggs {
		if a.Distinct {
			return false, false
		}
		if a.Arg == nil {
			continue
		}
		m, g := fs.column(a.Arg)
		if m == nil || !foldsAtSource(a.Kind, m, fs.GlobalSchema.Columns[g].Type) {
			return false, false
		}
	}
	return true, merges
}

// foldsAtSource reports whether the source may fold aggregate kind over
// a column the fragment maps by m, of global kind k, for the mediator to
// map up: a plain copy folds as it is; COUNT counts the values of any
// mapping but a coercion or a constant; SUM, AVG, MIN and MAX fold a
// FLOAT affine conversion. A value-mapped column's codes need not sort as
// what they stand for, so its MIN and MAX stay, and so does an argument
// coerced from another kind: a remote INT SUM wraps where the global
// FLOAT sum would not.
func foldsAtSource(kind expr.AggKind, m *catalog.ColumnMapping, k types.Kind) bool {
	switch {
	case m.Identity():
		return true
	case m.Const != nil || m.Retyped():
		return false
	case kind == expr.AggCount:
		return true
	}
	return m.Scale != 0 && k == types.KindFloat
}

// partialAgg is one aggregate the sources are asked for: its kind, and
// the index of the final aggregate whose argument it folds.
type partialAgg struct {
	kind expr.AggKind
	agg  int
}

// pushAggregate rewrites Aggregate(scans) so that each scan's source
// aggregates. Where no group can merge with another — one fragment,
// every key mapped one-to-one — that is the scan alone; otherwise it is
// Project(final Aggregate(the scans, or their union)). nil when the
// aggregation cannot be split.
func pushAggregate(agg *Aggregate, scans []*FragScan) Node {
	_, merge := agg.Input.(*Union)
	for _, fs := range scans {
		ok, merges := aggPushes(agg, fs)
		if !ok {
			return nil
		}
		merge = merge || merges
	}
	if merge && len(agg.Aggs) == 0 {
		return nil
	}

	// The aggregates each source is asked for: every final one as itself
	// when it is the scan's answer, and AVG as SUM and COUNT when the
	// partials are combined.
	var buf [8]partialAgg
	partials := buf[:0]
	for i, a := range agg.Aggs {
		if a.Kind == expr.AggAvg && merge {
			partials = append(partials, partialAgg{expr.AggSum, i}, partialAgg{expr.AggCount, i})
		} else {
			partials = append(partials, partialAgg{a.Kind, i})
		}
	}
	if !merge {
		partialScan(agg, scans[0], partials)
		scans[0].OutSchema = agg.Schema()
		return scans[0]
	}
	for i, fs := range scans {
		if i > 0 && fs.like == scans[i-1] {
			fs.follow(scans[i-1])
			continue
		}
		partialScan(agg, fs, partials)
		fs.OutSchema = partialSchema(fs, len(partials))
	}
	return finishPartials(agg, &Aggregate{Input: agg.Input}, partials)
}

// partialScan asks fs's source, in place, for partials of agg grouped
// by the remote columns behind its keys, and says what the mediator does
// with the answer: nothing when every key and aggregate comes back as it
// is, in its place; else Pos and Aggs map each row up.
func partialScan(agg *Aggregate, fs *FragScan, partials []partialAgg) {
	// Everything is resolved over the scan as it is before it changes;
	// the keys' remote columns, global columns and places go on the
	// stack first, and into one block only for a scan that builds.
	var remoteBuf, globalBuf, posBuf [8]int
	remote, global, pos := remoteBuf[:0], globalBuf[:0], posBuf[:0]
	builds := false
	for _, e := range agg.GroupBy {
		m, g := fs.column(e)
		p := -1
		if m.Const == nil {
			p = len(remote)
			remote = append(remote, m.RemoteCol)
		}
		global, pos = append(global, g), append(pos, p)
		builds = builds || !m.Identity()
	}
	shipped := len(remote)
	// Each aggregate is read at its place after the shipped keys and,
	// over an affine argument, mapped up.
	aggs := make([]source.AggSpec, len(partials))
	var upBuf [8]AggUp
	ups := upBuf[:0]
	for j, p := range partials {
		aggs[j] = source.AggSpec{Kind: p.kind, Col: -1, Star: true}
		ups = append(ups, AggUp{Col: shipped + j, Cnt: -1})
		arg := agg.Aggs[p.agg].Arg
		if arg == nil {
			continue
		}
		m, _ := fs.column(arg)
		aggs[j].Col, aggs[j].Star = m.RemoteCol, false
		if m.Identity() || p.kind == expr.AggCount {
			continue
		}
		ups[j].Scale, ups[j].Offset = m.Scale, m.Offset
		switch {
		case m.Scale < 0 && p.kind == expr.AggMin:
			aggs[j].Kind = expr.AggMax
		case m.Scale < 0 && p.kind == expr.AggMax:
			aggs[j].Kind = expr.AggMin
		}
		builds = true
	}
	// A SUM's Offset counts once per value it adds: the source counts
	// the argument too, unless it already does.
	for j, p := range partials {
		if p.kind != expr.AggSum || ups[j].Offset == 0 {
			continue
		}
		count := source.AggSpec{Kind: expr.AggCount, Col: aggs[j].Col}
		k := slices.Index(aggs, count)
		if k < 0 {
			k = len(aggs)
			aggs = append(aggs, count)
		}
		ups[j].Cnt = shipped + k
	}

	var groupBy []int
	if builds {
		block := make([]int, 0, shipped+2*len(pos))
		block = append(append(append(block, remote...), global...), pos...)
		groupBy, fs.Cols, fs.Pos = block[:shipped:shipped], block[shipped:shipped+len(pos)], block[shipped+len(pos):]
		fs.Aggs = append(make([]AggUp, 0, len(ups)), ups...)
	} else {
		fs.Cols, fs.Pos = nil, nil
		if shipped > 0 {
			groupBy = append(make([]int, 0, shipped), remote...)
		}
	}
	fs.aggregate(groupBy, aggs)
}

// partialSchema describes the rows of a partial scan: the source's
// answer as it comes, its group keys and then its aggregates, or, where
// the mediator builds them, the global key columns and each partial,
// FLOAT where it maps up.
func partialSchema(fs *FragScan, partials int) *types.Schema {
	remote := fs.Frag.Info().Schema
	cols := make([]types.Column, 0, fs.keys()+partials)
	if fs.Pos == nil {
		for _, g := range fs.Query.GroupBy {
			cols = append(cols, remote.Columns[g])
		}
	} else {
		for _, g := range fs.Cols {
			cols = append(cols, fs.GlobalSchema.Columns[g])
		}
	}
	for j, a := range fs.Query.Aggs[:partials] {
		in := types.KindInt
		if !a.Star {
			in = remote.Columns[a.Col].Type
		}
		c := types.Column{Name: a.String(), Type: expr.AggResultType(a.Kind, in), Nullable: a.Kind != expr.AggCount}
		if fs.Aggs != nil && fs.Aggs[j].Scale != 0 {
			c.Type = types.KindFloat
		}
		cols = append(cols, c)
	}
	return &types.Schema{Columns: cols}
}

// finishPartials completes final, an Aggregate over the partial scans,
// and the Project over it that gives agg's output: final groups by the
// keys and combines each partial (a SUM of COUNTs or SUMs, the MIN of
// MINs, the MAX of MAXes); the Project divides an AVG's SUM by its COUNT.
func finishPartials(agg, final *Aggregate, partials []partialAgg) Node {
	partialSchema := final.Input.Schema()
	nGroup := len(agg.GroupBy)
	for i := 0; i < nGroup; i++ {
		c := partialSchema.Columns[i]
		final.GroupBy = append(final.GroupBy, expr.NewBoundColRef(i, c.Type, c.Name))
	}
	for i, pa := range partials {
		col := nGroup + i
		c := partialSchema.Columns[col]
		kind := pa.kind
		if kind == expr.AggCount {
			kind = expr.AggSum
		}
		final.Aggs = append(final.Aggs, AggItem{
			Kind: kind,
			Arg:  expr.NewBoundColRef(col, c.Type, c.Name),
			Name: c.Name,
		})
	}

	// Final projection restores the requested output: group keys, then
	// each aggregate (AVG = sum/count). COUNT's SUM-of-partials can be
	// NULL when a group appears in no fragment output (impossible) — but
	// the SUM of counts over at least one partial is never NULL.
	finalSchema := final.Schema()
	outSchema := agg.Schema()
	proj := &Project{Input: final}
	for i := 0; i < nGroup; i++ {
		name := outSchema.Columns[i].Name
		proj.Exprs = append(proj.Exprs, expr.NewBoundColRef(i, finalSchema.Columns[i].Type, name))
		proj.Names = append(proj.Names, name)
	}
	col := nGroup // the final column of the aggregate's first partial
	for i, a := range agg.Aggs {
		name := outSchema.Columns[nGroup+i].Name
		switch a.Kind {
		case expr.AggAvg:
			// AVG = SUM(partial sums) / NULLIF(SUM(partial counts), 0);
			// NULLIF keeps all-NULL groups NULL instead of dividing by
			// zero.
			sum := expr.NewBoundColRef(col, finalSchema.Columns[col].Type, "")
			col++
			cnt := expr.NewBoundColRef(col, finalSchema.Columns[col].Type, "")
			nullif := expr.NewCall("NULLIF", cnt, expr.NewConst(types.NewInt(0)))
			div := expr.NewBinary(expr.OpDiv,
				&expr.Cast{E: sum, To: types.KindFloat},
				&expr.Cast{E: nullif, To: types.KindFloat})
			bound, err := expr.Bind(div, finalSchema)
			if err != nil {
				return nil
			}
			proj.Exprs = append(proj.Exprs, bound)
		case expr.AggCount:
			// SUM of partial counts is typed INT already, but guard the
			// empty-global-group case: COALESCE(sum, 0).
			ref := expr.NewBoundColRef(col, finalSchema.Columns[col].Type, "")
			co := expr.NewCall("COALESCE", ref, expr.NewConst(types.NewInt(0)))
			bound, err := expr.Bind(co, finalSchema)
			if err != nil {
				return nil
			}
			proj.Exprs = append(proj.Exprs, bound)
		default:
			proj.Exprs = append(proj.Exprs, expr.NewBoundColRef(col, finalSchema.Columns[col].Type, name))
		}
		proj.Names = append(proj.Names, name)
		col++
	}
	return proj
}
