package wire

// The header and the footer of a sub-query's conversation, which is
// msgExecute (header, query) → msgRows × k, msgEnd (last rows, footer),
// where each msgRows is a full batch and msgEnd's rows body the 0 to 255
// rows left; a msgErr may end it at any frame.
//
// Header: what the mediator says about the sub-query besides the query —
// the trace it runs under, when it is traced (trace id, the span the
// remote subtree belongs under), and the time it has left.
//
// Footer: what the component system says about the sub-query besides
// its rows: for a traced sub-query the finished span subtree of the
// server's side (rooted at a SpanRemote), nothing otherwise. A client
// stitches a footer that decodes under its ship span and ignores one
// that does not; the connection is in protocol sync either way, because
// the frame was read whole. See DESIGN.md "Distributed tracing & plan
// telemetry".

import (
	"time"

	"gis/internal/obs"
)

// execHeader opens a msgExecute payload, ahead of the query.
type execHeader struct {
	// TraceID is empty for an untraced sub-query; ParentSpan travels only
	// with a trace.
	TraceID    string
	ParentSpan uint64
	// Budget is the time the sub-query has left (see executeBudget), sent
	// in whole microseconds; 0 = no deadline.
	Budget time.Duration
}

func (e *Encoder) execHeader(h execHeader) {
	e.String(h.TraceID)
	if h.TraceID != "" {
		e.Uvarint(h.ParentSpan)
	}
	e.Uvarint(uint64(max(h.Budget.Microseconds(), 0)))
}

func (d *Decoder) execHeader() (h execHeader, err error) {
	if h.TraceID, err = d.String(); err != nil {
		return h, err
	}
	if h.TraceID != "" {
		if h.ParentSpan, err = d.Uvarint(); err != nil {
			return h, err
		}
	}
	us, err := d.Uvarint()
	h.Budget = time.Duration(us) * time.Microsecond
	return h, err
}

// footer appends a traced sub-query's finished remote subtree to a
// msgEnd payload, behind its rows (none: an untraced sub-query, no
// footer), in at most limit bytes: a subtree that does not fit is capped
// to half as many spans until it does, and one whose root alone is too
// large is not sent — the stream ends without a footer, never with an
// error on the footer's account.
func (e *Encoder) footer(data *obs.SpanData, limit int) {
	if data == nil {
		return
	}
	at := len(e.buf)
	e.Span(data)
	for n := obs.CountSpanData(data) / 2; len(e.buf)-at > limit; n /= 2 {
		e.buf = e.buf[:at]
		if n == 0 {
			return
		}
		e.Span(obs.CapSpanData(data, n))
	}
}

// Span encodes a span snapshot subtree: kind and name, start (µs since
// epoch), duration (µs), attrs, then children recursively.
func (e *Encoder) Span(sp *obs.SpanData) {
	e.String(sp.Kind)
	e.String(sp.Name)
	e.Varint(sp.Start.UnixMicro())
	e.Varint(sp.DurationUS)
	e.Uvarint(uint64(len(sp.Attrs)))
	for _, a := range sp.Attrs {
		e.String(a.Key)
		e.String(a.Value)
	}
	e.Uvarint(uint64(len(sp.Children)))
	for _, c := range sp.Children {
		e.Span(c)
	}
}

// Span decodes a span snapshot subtree. Counts are bounded by the
// remaining payload (every attr and child costs at least one byte) and
// depth by maxNesting, so a corrupt frame cannot provoke an oversized
// allocation or unbounded recursion.
func (d *Decoder) Span() (*obs.SpanData, error) {
	if err := d.descend(); err != nil {
		return nil, err
	}
	defer d.ascend()
	sp := &obs.SpanData{}
	var err error
	if sp.Kind, err = d.String(); err != nil {
		return nil, err
	}
	if sp.Name, err = d.String(); err != nil {
		return nil, err
	}
	us, err := d.Varint()
	if err != nil {
		return nil, err
	}
	sp.Start = time.UnixMicro(us)
	if sp.DurationUS, err = d.Varint(); err != nil {
		return nil, err
	}
	na, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < na; i++ {
		var a obs.Attr
		if a.Key, err = d.String(); err != nil {
			return nil, err
		}
		if a.Value, err = d.String(); err != nil {
			return nil, err
		}
		sp.Attrs = append(sp.Attrs, a)
	}
	nc, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		c, err := d.Span()
		if err != nil {
			return nil, err
		}
		sp.Children = append(sp.Children, c)
	}
	return sp, nil
}
