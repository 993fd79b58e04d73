package obs

import (
	"slices"
	"strconv"
)

// Remote-subtree stitching: a component-system server runs its part of
// a query under its own Trace, snapshots the finished tree as SpanData,
// and ships it back to the mediator in the result stream's footer. The
// mediator keeps the footer as it arrived, as data, on the live ship
// span, whose snapshots read it as their last child: one federation-wide
// tree.

// KindFromString parses a SpanKind name as produced by SpanKind.String.
// Unknown names report false, and AttachData reads them as SpanRemote.
// A peer of another helloVersion is refused at the hello, so only a
// malformed footer carries one.
func KindFromString(s string) (SpanKind, bool) {
	if k := slices.Index(kindNames[:], s); k >= 0 {
		return SpanKind(k), true
	}
	return 0, false
}

// AttachData keeps a component system's finished subtree as s's footer,
// replacing any kept before; an unknown kind name in it is read as
// remote. d is s's from then on: nothing may write it afterwards. Safe
// on a nil receiver and a nil snapshot (no-ops), and safe concurrently
// with children being attached.
func (s *Span) AttachData(d *SpanData) {
	if s == nil || d == nil {
		return
	}
	knownKinds(d)
	s.mu.Lock()
	s.footer = d
	s.mu.Unlock()
}

// knownKinds renames every span of d whose kind has no name here remote.
func knownKinds(d *SpanData) {
	if _, ok := KindFromString(d.Kind); !ok {
		d.Kind = kindNames[SpanRemote]
	}
	for _, c := range d.Children {
		knownKinds(c)
	}
}

// CountSpanData returns the number of nodes in a snapshot subtree.
func CountSpanData(d *SpanData) int {
	if d == nil {
		return 0
	}
	n := 1
	for _, c := range d.Children {
		n += CountSpanData(c)
	}
	return n
}

// CapSpanData bounds a snapshot to at most maxNodes spans, keeping the
// shallow prefix of the tree in depth-first order (parents before their
// children, so the retained shape stays connected). When spans are
// dropped the root gains a truncated_spans attribute with the count, so
// /slow consumers can tell a capped trace from a small one. The input
// is not modified; the returned tree's nodes are its own, share only
// attrs, which a snapshot's reader does not write, and carry no Stats.
func CapSpanData(d *SpanData, maxNodes int) *SpanData {
	if d == nil {
		return nil
	}
	total := CountSpanData(d)
	if maxNodes <= 0 {
		maxNodes = 1
	}
	budget := maxNodes
	out := capSpan(d, &budget)
	if dropped := total - (maxNodes - budget); dropped > 0 && out != nil {
		out.Attrs = append(slices.Clip(out.Attrs), Attr{Key: "truncated_spans", Value: strconv.Itoa(dropped)})
	}
	return out
}

func capSpan(d *SpanData, budget *int) *SpanData {
	if *budget <= 0 {
		return nil
	}
	*budget--
	out := *d
	out.Children, out.Stats = nil, nil // a capped tree is only rendered
	for _, c := range d.Children {
		if *budget <= 0 {
			break
		}
		if kept := capSpan(c, budget); kept != nil {
			out.Children = append(out.Children, kept)
		}
	}
	return &out
}
