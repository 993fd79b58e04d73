package plan

import (
	"gis/internal/expr"
)

// pruneColumns trims unused columns from the plan so fragment scans ship
// only what the query needs. It runs a required-columns pass top-down;
// each recursive call returns the rewritten node together with a mapping
// from the node's previous output positions to its new ones.
func pruneColumns(n Node) Node {
	out, _ := prune(n, allColumns(n.Schema().Len()))
	return out
}

// allColumns requires every one of width columns.
func allColumns(width int) []bool {
	all := make([]bool, width)
	for i := range all {
		all[i] = true
	}
	return all
}

// identityMapping maps each of width columns to itself.
func identityMapping(width int) []int {
	m := make([]int, width)
	for i := range m {
		m[i] = i
	}
	return m
}

// markColumns marks in need the columns e reads.
func markColumns(need []bool, e expr.Expr) {
	expr.Columns(e, func(c int) {
		if c < len(need) {
			need[c] = true
		}
	})
}

// prune rewrites n so it produces (at least) the required columns.
// mapping is as long as n was wide: mapping[old] is the column's new
// position, -1 when it is gone.
func prune(n Node, required []bool) (Node, []int) {
	switch t := n.(type) {
	case *Project:
		// Keep only required expressions — one at least, to preserve
		// row counts.
		mapping := make([]int, len(t.Exprs))
		kept := 0
		for i := range mapping {
			if i < len(required) && !required[i] {
				mapping[i] = -1
				continue
			}
			mapping[i] = kept
			kept++
		}
		if kept == 0 && len(mapping) > 0 {
			mapping[0], kept = 0, 1
		}
		// A projection that loses nothing stays the node it is, and its
		// schema stands: remapping below moves positions, not names or
		// types.
		out := t
		if kept < len(t.Exprs) {
			out = &Project{Exprs: make([]expr.Expr, kept), Names: make([]string, kept)}
			for i, m := range mapping {
				if m >= 0 {
					out.Exprs[m], out.Names[m] = t.Exprs[i], t.Names[i]
				}
			}
		}
		needIn := make([]bool, t.Input.Schema().Len())
		for _, e := range out.Exprs {
			markColumns(needIn, e)
		}
		input, inMap := prune(t.Input, needIn)
		out.Input = input
		for i, e := range out.Exprs {
			out.Exprs[i] = expr.Remap(e, inMap)
		}
		return out, mapping

	case *Filter:
		need := make([]bool, t.Input.Schema().Len())
		copy(need, required)
		markColumns(need, t.Pred)
		input, inMap := prune(t.Input, need)
		t.Input = input
		t.Pred = expr.Remap(t.Pred, inMap)
		return t, inMap

	case *GlobalScan:
		// Translate required output positions into full-schema columns.
		full := func(i int) int {
			if t.Cols != nil {
				return t.Cols[i]
			}
			return i
		}
		width := len(t.Cols)
		if t.Cols == nil {
			width = t.Table.Schema.Len()
		}
		cols := make([]int, 0, width)
		mapping := make([]int, width)
		for i := range mapping {
			if i >= len(required) || !required[i] {
				mapping[i] = -1
				continue
			}
			mapping[i] = len(cols)
			cols = append(cols, full(i))
		}
		if len(cols) == 0 && width > 0 {
			// Keep one column so the scan still yields rows.
			cols = append(cols, full(0))
			mapping[0] = 0
		}
		t.Cols = cols
		if len(cols) < width {
			t.invalidate()
		}
		return t, mapping

	case *Join:
		lw := t.L.Schema().Len()
		rw := t.R.Schema().Len()
		needL := make([]bool, lw)
		needR := make([]bool, rw)
		mark := func(idx int) {
			if idx < lw {
				needL[idx] = true
			} else if idx-lw < rw {
				needR[idx-lw] = true
			}
		}
		for i, r := range required {
			if r {
				mark(i)
			}
		}
		expr.Columns(t.Cond, mark)
		l, lMap := prune(t.L, needL)
		r, rMap := prune(t.R, needR)
		newLW := l.Schema().Len()
		// The pruned concatenated schema: the condition is rebuilt over
		// it, and it is the join's output.
		both := make([]int, lw+rw)
		copy(both, lMap)
		for old, nw := range rMap {
			if nw >= 0 {
				nw += newLW
			}
			both[lw+old] = nw
		}
		t.Cond = expr.Remap(t.Cond, both)
		t.L, t.R = l, r
		t.EquiL, t.EquiR = nil, nil // re-extracted later
		t.schema = nil
		return t, both

	case *Aggregate:
		// Group keys always survive; unused aggregates are dropped.
		nGroup := len(t.GroupBy)
		mapping := make([]int, nGroup+len(t.Aggs))
		for i := 0; i < nGroup; i++ {
			mapping[i] = i
		}
		kept := t.Aggs[:0]
		for i, a := range t.Aggs {
			pos := nGroup + i
			if pos < len(required) && !required[pos] && len(t.Aggs) > 1 {
				mapping[pos] = -1
				continue
			}
			mapping[pos] = nGroup + len(kept)
			kept = append(kept, a)
		}
		t.Aggs = kept
		needIn := make([]bool, t.Input.Schema().Len())
		for _, g := range t.GroupBy {
			markColumns(needIn, g)
		}
		for _, a := range t.Aggs {
			markColumns(needIn, a.Arg)
		}
		input, inMap := prune(t.Input, needIn)
		t.Input = input
		for i := range t.GroupBy {
			t.GroupBy[i] = expr.Remap(t.GroupBy[i], inMap)
		}
		for i := range t.Aggs {
			t.Aggs[i].Arg = expr.Remap(t.Aggs[i].Arg, inMap)
		}
		t.schema = nil
		return t, mapping

	case *Sort:
		need := make([]bool, t.Input.Schema().Len())
		copy(need, required)
		for _, k := range t.Keys {
			markColumns(need, k.E)
		}
		input, inMap := prune(t.Input, need)
		t.Input = input
		for i := range t.Keys {
			t.Keys[i].E = expr.Remap(t.Keys[i].E, inMap)
		}
		return t, inMap

	case *Limit:
		input, inMap := prune(t.Input, required)
		t.Input = input
		return t, inMap

	case *Union:
		// Arms must stay position-compatible; require everything.
		for i := range t.Inputs {
			t.Inputs[i], _ = prune(t.Inputs[i], allColumns(t.Inputs[i].Schema().Len()))
		}
		return t, identityMapping(t.Schema().Len())

	default:
		return n, identityMapping(n.Schema().Len())
	}
}
