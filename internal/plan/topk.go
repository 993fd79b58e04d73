package plan

import (
	"slices"

	"gis/internal/expr"
	"gis/internal/source"
)

// pushTopK sinks ORDER BY and LIMIT toward the sources, bottom-up:
//
//   - Sort over a single scan whose source sorts pushes the ordering
//     remotely and disappears;
//   - Limit over Sort tells the Sort how many rows it reads of it
//     (Sort.Top = offset+N: the mediator keeps that many, not its whole
//     input), and over a fragment union ships the per-fragment
//     top-(offset+N) — the global top-N is contained in the union of the
//     per-fragment top-Ns, provided every fragment is ordered and cut
//     alike, so all take it or none does — and keeps the final
//     Sort+Limit at the mediator (distributed top-k);
//   - any other Limit pushes offset+N into each fragment that takes it
//     (any subset of the right size is a valid unordered LIMIT result;
//     over a single scan the Sort rule just ordered, it is the top-N).
//
// Both see through pass-through projections (hidden ORDER BY columns).
// Sort keys must be bare identity-mapped columns.
func pushTopK(n Node) Node {
	EachInput(n, func(in *Node) { *in = pushTopK(*in) })
	switch t := n.(type) {
	case *Sort:
		term, translate := throughProjections(t.Input)
		if fs, ok := term.(*FragScan); ok && pushOrderLimit([]*FragScan{fs}, t.Keys, translate, -1, true) {
			return t.Input
		}
	case *Limit:
		if shipN := t.N + t.Offset; shipN >= 0 {
			if s := sortBelowProjections(t.Input); s != nil {
				s.Top = shipN
				term, translate := throughProjections(s.Input)
				pushOrderLimit(FragScans(term), s.Keys, translate, shipN, true)
			} else {
				term, _ := throughProjections(t.Input)
				pushOrderLimit(FragScans(term), nil, nil, shipN, false)
			}
		}
	default:
		// Nothing else orders or cuts.
	}
	return n
}

// pushOrderLimit asks the sources of scans to order their rows by keys
// (nil: no ordering asked) and to stop after limit rows (negative: no
// limit asked). translate maps a key's column to a column of the scans.
// With allOrNothing a scan that cannot take the request leaves every
// scan as it was; without, each scan decides for itself. It reports
// whether every scan took the request.
func pushOrderLimit(scans []*FragScan, keys []SortKey, translate func(int) int, limit int64, allOrNothing bool) bool {
	type request struct {
		fs    *FragScan
		specs []source.OrderSpec
	}
	var taken []request
	for _, fs := range scans {
		specs, ok := remoteOrderSpec(fs, keys, translate)
		if ok && (limit < 0 || fs.acceptsLimit()) {
			if taken == nil {
				taken = make([]request, 0, len(scans))
			}
			taken = append(taken, request{fs, specs})
		} else if allOrNothing {
			return false
		}
	}
	for _, r := range taken {
		setOrderLimit(r.fs, r.specs, limit)
	}
	return len(taken) == len(scans)
}

// setOrderLimit is the only writer of a pushed query's OrderBy and
// Limit; nil specs and a negative limit leave theirs alone.
func setOrderLimit(fs *FragScan, specs []source.OrderSpec, limit int64) {
	if specs != nil {
		fs.Query.OrderBy = specs
	}
	if limit >= 0 {
		fs.Query.Limit = limit
	}
}

// throughProjections walks a chain of pass-through projections and
// returns the terminal node plus a translator mapping an output column
// of the chain to a column of the terminal node (-1 when not a bare
// column path).
func throughProjections(n Node) (Node, func(int) int) {
	var layers []*Project
	cur := n
	for {
		p, ok := cur.(*Project)
		if !ok {
			break
		}
		layers = append(layers, p)
		cur = p.Input
	}
	translate := func(col int) int {
		for _, p := range layers {
			if col < 0 || col >= len(p.Exprs) {
				return -1
			}
			ref, ok := p.Exprs[col].(*expr.ColRef)
			if !ok || ref.Index < 0 {
				return -1
			}
			col = ref.Index
		}
		return col
	}
	return cur, translate
}

// sortBelowProjections finds a Sort under a chain of projections.
func sortBelowProjections(n Node) *Sort {
	for {
		p, ok := n.(*Project)
		if !ok {
			break
		}
		n = p.Input
	}
	s, _ := n.(*Sort)
	return s
}

// remoteOrderSpec resolves sort keys for a scan that accepts an ordering
// to positions in the output of its pushed query; ok=false when it does
// not, or a key is not a bare identity-mapped column the query ships.
// No keys need no acceptance and resolve to nil. (The mediator-side
// projection Out may reorder columns; order is preserved row-wise either
// way, so only the key's position in the source's output matters.)
func remoteOrderSpec(fs *FragScan, keys []SortKey, translate func(int) int) ([]source.OrderSpec, bool) {
	if keys == nil {
		return nil, true
	}
	if !fs.acceptsOrder() {
		return nil, false
	}
	specs := make([]source.OrderSpec, 0, len(keys))
	for _, k := range keys {
		ref, isCol := k.E.(*expr.ColRef)
		if !isCol {
			return nil, false
		}
		remote, ok := fs.identityCol(translate(ref.Index))
		if !ok {
			return nil, false
		}
		pos := remote
		if fs.Query.Columns != nil {
			pos = slices.Index(fs.Query.Columns, remote)
		}
		if pos < 0 {
			return nil, false
		}
		specs = append(specs, source.OrderSpec{Col: pos, Desc: k.Desc})
	}
	return specs, true
}
