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

// appendMapping extends m, which says where each of the first off
// columns of a concatenation went (nil: each stayed), by im, which says
// where each of the next w went in their input (nil: each stayed), that
// input's columns now starting at position at; -1 is a column gone. It
// is nil while every column stayed.
func appendMapping(m, im []int, off, at, w int) []int {
	if m == nil {
		switch {
		case off == 0 && at == 0:
			return im
		case im == nil && off == at:
			return nil
		}
		m = identityMapping(off)
	}
	for c := range w {
		if im != nil {
			c = im[c]
		}
		if c >= 0 {
			c += at
		}
		m = append(m, c)
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
// required is as long as n is wide, and prune may mark more columns in
// it. mapping is as long as n was wide: mapping[old] is the column's new
// position, -1 when it is gone.
func prune(n Node, required []bool) (Node, []int) {
	// need is what n's inputs must produce, over their concatenated
	// columns: for a node rows pass through, what is required of n.
	// mapping is n's own, nil when its rows are its inputs' rows.
	need := required
	var mapping []int
	switch t := n.(type) {
	case *Project:
		// Keep only required expressions — one at least, to preserve
		// row counts.
		mapping = make([]int, len(t.Exprs))
		kept := 0
		for i := range mapping {
			if !required[i] {
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
		if kept < len(t.Exprs) {
			out := &Project{Exprs: make([]expr.Expr, kept), Names: make([]string, kept), Input: t.Input}
			for i, m := range mapping {
				if m >= 0 {
					out.Exprs[m], out.Names[m] = t.Exprs[i], t.Names[i]
				}
			}
			n = out
		}
		need = make([]bool, t.Input.Schema().Len())

	case *Aggregate:
		// Group keys always survive; unused aggregates are dropped.
		nGroup := len(t.GroupBy)
		mapping = make([]int, nGroup+len(t.Aggs))
		for i := 0; i < nGroup; i++ {
			mapping[i] = i
		}
		kept := t.Aggs[:0]
		for i, a := range t.Aggs {
			pos := nGroup + i
			if !required[pos] && len(t.Aggs) > 1 {
				mapping[pos] = -1
				continue
			}
			mapping[pos] = nGroup + len(kept)
			kept = append(kept, a)
		}
		t.Aggs = kept
		t.schema = nil
		need = make([]bool, t.Input.Schema().Len())

	case *Filter, *Sort, *Limit, *Join:
		// Rows pass through: the inputs keep what is required of n.

	case *GlobalScan:
		return t.prune(required)

	case *Union:
		// Arms must stay position-compatible; require everything.
		for i := range t.Inputs {
			t.Inputs[i], _ = prune(t.Inputs[i], allColumns(t.Inputs[i].Schema().Len()))
		}
		return t, identityMapping(t.Schema().Len())

	default:
		return n, identityMapping(n.Schema().Len())
	}
	eachExpr(n, func(e *expr.Expr) { markColumns(need, *e) })
	// Each input is pruned to its share of need; inMap takes a column of
	// their concatenation to its position in the pruned one.
	var inMap []int
	off, at := 0, 0
	EachInput(n, func(in *Node) {
		w := (*in).Schema().Len()
		var m []int
		*in, m = prune(*in, need[off:off+w])
		inMap = appendMapping(inMap, m, off, at, w)
		off, at = off+w, at+(*in).Schema().Len()
	})
	eachExpr(n, func(e *expr.Expr) { *e = expr.Remap(*e, inMap) })
	if j, ok := n.(*Join); ok {
		j.schema = nil
	}
	if mapping == nil {
		return n, inMap
	}
	return n, mapping
}

// prune keeps the scan's required columns, and one at least, so that the
// scan still yields rows. Their positions and the scan's mapping are
// carved from one block, which is sized to hold, past them, the integer
// layout of the scan's first fragment scan (layoutInts): no fragment
// fetches more than the kept columns and the others the filter reads.
func (s *GlobalScan) prune(required []bool) (Node, []int) {
	width := len(s.Cols)
	if s.Cols == nil {
		width = s.Table.Schema.Len()
	}
	full := func(i int) int {
		if s.Cols != nil {
			return s.Cols[i]
		}
		return i
	}
	kept := 0
	for i := range width {
		if required[i] {
			kept++
		}
	}
	first := kept == 0 && width > 0 // the one column kept though none is required
	if first {
		kept = 1
	}
	keeps := func(i int) bool { return required[i] || first && i == 0 }
	fetched := kept + expr.OtherColumns(s.Filter, func(c int) bool {
		if s.Cols == nil {
			return c < width && keeps(c)
		}
		for i, sc := range s.Cols {
			if sc == c && keeps(i) {
				return true
			}
		}
		return false
	})
	block := make([]int, width+kept+layoutInts(s.Table.Schema.Len(), kept, fetched, expr.Ascending(s.Cols), true))
	mapping, cols := block[:width:width], block[width:width:width+kept]
	for i := range mapping {
		if !keeps(i) {
			mapping[i] = -1
			continue
		}
		mapping[i] = len(cols)
		cols = append(cols, full(i))
	}
	s.Cols, s.layout = cols, block[width+kept:]
	if len(cols) < width {
		s.invalidate()
	}
	return s, mapping
}
