package wire

// Distributed trace propagation over the wire protocol.
//
// Request side: Client.Execute appends the trace context — (present
// flag, trace id, parent span id, sampling flag) — after the encoded
// query in the msgExecute payload. Decoder.Query consumes an exact
// prefix, so a server reads the context from the bytes that follow; a
// request from an untraced query carries `false` and nothing else.
//
// Response side: when the context is present and sampled, the server
// runs the fragment under its own obs.Trace (rooted at a SpanRemote)
// and, after the final msgEnd — whose one-byte payload flags that a
// trailer follows — ships the finished span subtree back in a msgTrace
// trailer frame. Rows always complete before the trailer is sent, so a
// lost, stalled, or malformed trailer can never fail the query: the
// client degrades to its local-only trace and increments
// obs.trace.remote_lost. See DESIGN.md "Distributed tracing & plan
// telemetry".

import (
	"context"
	"time"

	"gis/internal/faults"
	"gis/internal/obs"
)

// mRemoteLost counts result streams whose trace trailer was lost
// (dropped, timed out, or malformed). The query itself succeeded; only
// the remote half of its trace is missing.
var mRemoteLost = obs.Default().Counter("obs.trace.remote_lost")

// defaultTrailerTimeout bounds how long a client waits for the msgTrace
// trailer after msgEnd announced one. Generous against WAN latency but
// finite: tracing must never wedge a finished query.
const defaultTrailerTimeout = 2 * time.Second

// traceContext is the distributed-trace context piggybacked on a
// msgExecute request.
type traceContext struct {
	TraceID    string
	ParentSpan uint64
	Sampled    bool
}

// traceContext appends the trace context; nil (an untraced query)
// encodes as a single absent flag.
func (e *Encoder) traceContext(tc *traceContext) {
	if tc == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.String(tc.TraceID)
	e.Uvarint(tc.ParentSpan)
	e.Bool(tc.Sampled)
}

// traceContext reads the trace context that follows the query in a
// msgExecute payload; nil when the flag says the query is untraced.
func (d *Decoder) traceContext() (*traceContext, error) {
	present, err := d.Bool()
	if err != nil || !present {
		return nil, err
	}
	tc := &traceContext{}
	if tc.TraceID, err = d.String(); err != nil {
		return nil, err
	}
	if tc.ParentSpan, err = d.Uvarint(); err != nil {
		return nil, err
	}
	if tc.Sampled, err = d.Bool(); err != nil {
		return nil, err
	}
	return tc, nil
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

// finishTrailer consumes the msgTrace trailer the server announced via
// the msgEnd flag, stitches the remote subtree under the parent (ship)
// span, and returns the connection to the pool. Any failure — injected
// fault, read timeout, wrong tag, malformed payload, trace-id mismatch
// — degrades to the mediator-only trace: the counter is bumped and the
// connection discarded (its protocol state is unknown), but the query
// has already succeeded.
func (it *streamIter) finishTrailer(traceID string) {
	fc := it.fc
	it.fc = nil
	if it.readTrailer(fc, traceID) {
		it.c.putConn(fc)
		return
	}
	mRemoteLost.Inc()
	it.c.discard(fc)
}

func (it *streamIter) readTrailer(fc *frameConn, traceID string) bool {
	// Client-side fault point (ops=trace): a drop here models the link
	// dying between the last row and the trailer.
	if err := fc.injure(it.ctx, faults.OpTrace); err != nil {
		return false
	}
	// The wait is bounded by the trailer timeout or the query's own
	// deadline, whichever is sooner.
	tctx, cancel := context.WithTimeout(it.ctx, it.c.trailerTimeout)
	defer cancel()
	tag, payload, err := fc.readFrame(tctx)
	if err != nil || tag != msgTrace {
		return false
	}
	data, err := NewDecoder(payload).Span()
	if err != nil {
		return false
	}
	// The subtree must belong to this query's trace; a mismatch means
	// the conn's protocol state is confused and the subtree is not ours.
	if id := attrValue(data, "trace_id"); id != traceID {
		return false
	}
	it.parent.AttachData(data)
	// The remote-compute share of the ship span; whatever else the span
	// took is the WAN share.
	it.parent.SetRemoteUS(data.DurationUS)
	return true
}

func attrValue(sp *obs.SpanData, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
