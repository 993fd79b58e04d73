package plan

import (
	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// pushAggregates sinks aggregation into fragment scans where the source
// supports it:
//
//   - a single-fragment scan evaluates the whole aggregation remotely
//     (exact pushdown);
//   - a multi-fragment union evaluates a *partial* aggregation per
//     fragment and the mediator combines the partials (two-phase
//     aggregation: COUNT→SUM, SUM→SUM, MIN→MIN, MAX→MAX, and AVG is
//     decomposed into SUM+COUNT with a final division).
//
// The rewrite requires: group keys and aggregate arguments are bare
// identity-mapped columns, and every scan accepts an aggregate.
// DISTINCT aggregates never push (distinctness is global).
func pushAggregates(n Node) Node {
	EachInput(n, func(in *Node) { *in = pushAggregates(*in) })
	agg, ok := n.(*Aggregate)
	if !ok || len(agg.GroupBy)+len(agg.Aggs) == 0 {
		// An aggregation with neither keys nor aggregates (SELECT 1 FROM
		// t HAVING ...) is one row whatever it reads; the sub-query IR
		// cannot say that, so it stays at the mediator.
		return n
	}
	if fs, single := agg.Input.(*FragScan); single {
		if cols, ok := remoteAggColumns(agg, fs); ok {
			return pushWholeAggregate(agg, fs, cols)
		}
		return n
	}
	// Every fragment of a union takes its partial, or none does.
	scans := FragScans(agg.Input)
	if scans == nil {
		return n
	}
	cols := make([]aggColumns, len(scans))
	for i, fs := range scans {
		if cols[i], ok = remoteAggColumns(agg, fs); !ok {
			return n
		}
	}
	if out := pushPartialAggregate(agg, scans, cols, agg.Input.(*Union).Parallel); out != nil {
		return out
	}
	return n
}

// aggColumns are the remote columns of one scan behind an aggregation's
// group keys and aggregate arguments (-1 for COUNT(*)).
type aggColumns struct{ group, args []int }

// remoteAggColumns resolves agg's group keys and arguments over fs; ok
// is false when the scan does not accept an aggregate or one of them is
// not a bare identity-mapped column.
func remoteAggColumns(agg *Aggregate, fs *FragScan) (cols aggColumns, ok bool) {
	if !fs.acceptsAggregate() {
		return cols, false
	}
	if len(agg.GroupBy) > 0 {
		cols.group = make([]int, 0, len(agg.GroupBy))
	}
	for _, g := range agg.GroupBy {
		rc, ok := fs.identityCol(g)
		if !ok {
			return cols, false
		}
		cols.group = append(cols.group, rc)
	}
	cols.args = make([]int, 0, len(agg.Aggs))
	for _, a := range agg.Aggs {
		if a.Distinct {
			return cols, false
		}
		rc := -1
		if a.Arg != nil {
			if rc, ok = fs.identityCol(a.Arg); !ok {
				return cols, false
			}
		}
		cols.args = append(cols.args, rc)
	}
	return cols, true
}

// pushWholeAggregate rewrites Aggregate(FragScan) into a scan whose
// remote query aggregates.
func pushWholeAggregate(agg *Aggregate, fs *FragScan, cols aggColumns) Node {
	aggs := make([]source.AggSpec, len(agg.Aggs))
	for i, a := range agg.Aggs {
		aggs[i] = source.AggSpec{Kind: a.Kind, Col: cols.args[i], Star: a.Arg == nil}
	}
	return fs.aggregated(cols.group, aggs, agg.Schema())
}

// partialSpec describes how one final aggregate decomposes into partial
// remote aggregates and a combining function.
type partialSpec struct {
	// cols are the positions of this aggregate's partials in the
	// per-fragment output (after the group keys).
	sumCol, cntCol int
	kind           expr.AggKind
}

// pushPartialAggregate rewrites Aggregate(Union{FragScans}) into
// Project(FinalAggregate(Union{partial FragScans})), the union fetched
// as the original was; nil when the aggregation cannot be split.
func pushPartialAggregate(agg *Aggregate, scans []*FragScan, cols []aggColumns, parallel bool) Node {
	if len(agg.Aggs) == 0 {
		return nil
	}

	// Build the partial aggregate list: AVG becomes SUM+COUNT; every
	// other aggregate maps to itself.
	nGroup := len(agg.GroupBy)
	var specs []partialSpec
	type partialAgg struct {
		kind expr.AggKind
		argI int // index into the scan's argument columns
		star bool
	}
	var partialAggs []partialAgg
	for i, a := range agg.Aggs {
		switch a.Kind {
		case expr.AggAvg:
			specs = append(specs, partialSpec{
				sumCol: nGroup + len(partialAggs),
				cntCol: nGroup + len(partialAggs) + 1,
				kind:   expr.AggAvg,
			})
			partialAggs = append(partialAggs, partialAgg{expr.AggSum, i, false}, partialAgg{expr.AggCount, i, false})
		default:
			specs = append(specs, partialSpec{
				sumCol: nGroup + len(partialAggs),
				cntCol: -1,
				kind:   a.Kind,
			})
			partialAggs = append(partialAggs, partialAgg{a.Kind, i, a.Arg == nil})
		}
	}

	// Per-fragment scans with the partial aggregation pushed.
	newInputs := make([]Node, len(scans))
	var partialSchema *types.Schema
	for si, fs := range scans {
		aggs := make([]source.AggSpec, len(partialAggs))
		for i, pa := range partialAggs {
			col := -1
			if !pa.star {
				col = cols[si].args[pa.argI]
			}
			aggs[i] = source.AggSpec{Kind: pa.kind, Col: col, Star: pa.star}
		}
		partial := fs.aggregated(cols[si].group, aggs, nil)
		sch, err := partial.Query.OutputSchema(fs.Frag.Info().Schema)
		if err != nil {
			return nil
		}
		partial.OutSchema = sch
		if partialSchema == nil {
			partialSchema = sch
		}
		newInputs[si] = partial
	}
	partialUnion := &Union{Inputs: newInputs, All: true, Parallel: parallel}

	// Final aggregation combines the partials, grouped by the keys.
	final := &Aggregate{Input: partialUnion}
	for i := 0; i < nGroup; i++ {
		c := partialSchema.Columns[i]
		final.GroupBy = append(final.GroupBy, expr.NewBoundColRef(i, c.Type, c.Name))
	}
	for i, pa := range partialAggs {
		col := nGroup + i
		c := partialSchema.Columns[col]
		var kind expr.AggKind
		switch pa.kind {
		case expr.AggCount, expr.AggSum:
			kind = expr.AggSum
		case expr.AggMin:
			kind = expr.AggMin
		case expr.AggMax:
			kind = expr.AggMax
		default:
			return nil
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
	for i, sp := range specs {
		name := outSchema.Columns[nGroup+i].Name
		switch sp.kind {
		case expr.AggAvg:
			// AVG = SUM(partial sums) / NULLIF(SUM(partial counts), 0);
			// NULLIF keeps all-NULL groups NULL instead of dividing by
			// zero.
			sum := expr.NewBoundColRef(sp.sumCol, finalSchema.Columns[sp.sumCol].Type, "")
			cnt := expr.NewBoundColRef(sp.cntCol, finalSchema.Columns[sp.cntCol].Type, "")
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
			ref := expr.NewBoundColRef(sp.sumCol, finalSchema.Columns[sp.sumCol].Type, "")
			co := expr.NewCall("COALESCE", ref, expr.NewConst(types.NewInt(0)))
			bound, err := expr.Bind(co, finalSchema)
			if err != nil {
				return nil
			}
			proj.Exprs = append(proj.Exprs, bound)
		default:
			ref := expr.NewBoundColRef(sp.sumCol, finalSchema.Columns[sp.sumCol].Type, name)
			proj.Exprs = append(proj.Exprs, ref)
		}
		proj.Names = append(proj.Names, name)
	}
	return proj
}
