package wire

// The header and the footer of a sub-query's conversation, which is
// msgExecute (header, query) → msgOK, msgRows…, msgEnd (footer).
//
// Header: what the mediator says about the sub-query besides the query —
// the trace it runs under, when it is traced (trace id, the span the
// remote subtree belongs under), and the time it has left.
//
// Footer: what the component system says about the sub-query besides
// its rows. It is msgEnd's payload: for a traced sub-query the finished
// span subtree of the server's side (rooted at a SpanRemote), empty
// otherwise. It ends the stream whatever it holds: a client stitches a
// footer that decodes under its ship span and ignores one that does not,
// and the connection is in protocol sync either way, because the frame
// was read whole. See DESIGN.md "Distributed tracing & plan telemetry".

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

// footer encodes a traced sub-query's finished remote subtree as the
// msgEnd payload (none: an untraced sub-query, an empty footer). The
// payload has to fit the peer's frame bound: a subtree that does not is
// capped to half as many spans until it does, and one whose root alone
// is too large is not sent — the stream ends with an empty footer, never
// with an error on the footer's account.
func footer(data *obs.SpanData, limit int) []byte {
	if data == nil {
		return nil
	}
	e := newMessage()
	e.Span(data)
	for n := obs.CountSpanData(data) / 2; len(e.Bytes()) > limit; n /= 2 {
		if n == 0 {
			return nil
		}
		e.Reset()
		e.Span(obs.CapSpanData(data, n))
	}
	return e.Bytes()
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
