package plan

import (
	"slices"

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
// Both see through one projection: after optimization no Project's
// input is a Project, except where composing would evaluate a computed
// column twice, and a Sort pushed away here leaves its two composed.
// Sort keys must be bare identity-mapped columns.
func pushTopK(n Node) Node {
	EachInput(n, func(in *Node) { *in = pushTopK(*in) })
	switch t := n.(type) {
	case *Project:
		composeProject(t)
	case *Sort:
		via, term := underProject(t.Input)
		if fs, ok := term.(*FragScan); ok && pushOrderLimit([]*FragScan{fs}, t.Keys, via, -1, true) {
			return t.Input
		}
	case *Limit:
		if shipN := t.N + t.Offset; shipN >= 0 {
			_, term := underProject(t.Input)
			if s, ok := term.(*Sort); ok {
				s.Top = shipN
				via, term := underProject(s.Input)
				pushOrderLimit(FragScans(term), s.Keys, via, shipN, true)
			} else {
				pushOrderLimit(FragScans(term), nil, nil, shipN, false)
			}
		}
	default:
		// Nothing else orders or cuts.
	}
	return n
}

// underProject returns n's Project (nil when n is none) and its input.
func underProject(n Node) (*Project, Node) {
	if p, ok := n.(*Project); ok {
		return p, p.Input
	}
	return nil, n
}

// pushOrderLimit asks the sources of scans to order their rows by keys
// (nil: no ordering asked) and to stop after limit rows (negative: no
// limit asked). The keys are over via's output (nil: over the scans').
// With allOrNothing a scan that cannot take the request leaves every
// scan as it was; without, each scan decides for itself. It reports
// whether every scan took the request.
func pushOrderLimit(scans []*FragScan, keys []SortKey, via *Project, limit int64, allOrNothing bool) bool {
	type request struct {
		fs    *FragScan
		specs []source.OrderSpec
	}
	var taken []request
	for _, fs := range scans {
		specs, ok := remoteOrderSpec(fs, keys, via)
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

// remoteOrderSpec resolves sort keys for a scan that accepts an ordering
// to positions in the output of its pushed query; ok=false when it does
// not, or a key is not a bare identity-mapped column the query ships.
// No keys need no acceptance and resolve to nil. (The mediator-side
// projection Out may reorder columns; order is preserved row-wise either
// way, so only the key's position in the source's output matters.)
func remoteOrderSpec(fs *FragScan, keys []SortKey, via *Project) ([]source.OrderSpec, bool) {
	if keys == nil {
		return nil, true
	}
	if !fs.acceptsOrder() {
		return nil, false
	}
	specs := make([]source.OrderSpec, 0, len(keys))
	for _, k := range keys {
		e := k.E
		if via != nil {
			e = throughProject(e, via)
		}
		remote, ok := fs.identityCol(e)
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
