package obs

import (
	"slices"
	"strconv"
	"time"
)

// Remote-subtree stitching: a component-system server runs its part of
// a query under its own Trace, snapshots the finished tree as SpanData,
// and ships it back to the mediator in the result stream's footer. The
// mediator reconstructs the snapshot as ended spans and attaches them
// under the live ship span, producing one federation-wide tree.

// KindFromString parses a SpanKind name as produced by SpanKind.String.
// Unknown names report false; callers stitching foreign subtrees fall
// back to SpanRemote so an out-of-version peer still renders.
func KindFromString(s string) (SpanKind, bool) {
	if k := slices.Index(kindNames[:], s); k >= 0 {
		return SpanKind(k), true
	}
	return 0, false
}

// SpanFromData reconstructs a snapshot as an already-ended span
// subtree. The spans get fresh local ids and are safe to attach into a
// live trace; mutating the snapshot afterwards does not affect them.
func SpanFromData(d *SpanData) *Span {
	if d == nil {
		return nil
	}
	kind, ok := KindFromString(d.Kind)
	if !ok {
		kind = SpanRemote
	}
	sp := &Span{
		id:    nextSpanID.Add(1),
		kind:  kind,
		name:  d.Name,
		start: d.Start,
		dur:   time.Duration(d.DurationUS) * time.Microsecond,
		ended: true,
		attrs: append([]Attr(nil), d.Attrs...),
	}
	for _, c := range d.Children {
		if child := SpanFromData(c); child != nil {
			sp.children = append(sp.children, child)
		}
	}
	return sp
}

// AttachData stitches a remote snapshot under s as an ended child
// subtree. Safe on a nil receiver and a nil snapshot (no-ops), and safe
// concurrently with other children being attached.
func (s *Span) AttachData(d *SpanData) {
	if s == nil || d == nil {
		return
	}
	if child := SpanFromData(d); child != nil {
		s.addChild(child)
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
// is not modified; the returned tree shares no structure with it.
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
		out.Attrs = append(out.Attrs, Attr{Key: "truncated_spans", Value: strconv.Itoa(dropped)})
	}
	return out
}

func capSpan(d *SpanData, budget *int) *SpanData {
	if *budget <= 0 {
		return nil
	}
	*budget--
	out := &SpanData{
		Kind:       d.Kind,
		Name:       d.Name,
		Start:      d.Start,
		DurationUS: d.DurationUS,
		Attrs:      append([]Attr(nil), d.Attrs...),
	}
	for _, c := range d.Children {
		if *budget <= 0 {
			break
		}
		if kept := capSpan(c, budget); kept != nil {
			out.Children = append(out.Children, kept)
		}
	}
	return out
}
