package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
)

// runTracedScan executes a full-table scan under a fresh trace with a
// ship parent span (mimicking the mediator's FragScan) and returns a
// snapshot of the ended ship span for inspection. The query must always succeed with n
// rows regardless of what happens to the footer.
func runTracedScan(t *testing.T, cl *Client, n int) *obs.SpanData {
	t.Helper()
	tr := obs.NewTrace("traced scan")
	tctx := obs.WithTrace(ctx, tr)
	tctx, ship := obs.StartSpan(tctx, obs.SpanShip, "items")
	it, err := cl.Execute(tctx, source.NewScan("items"))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	ship.End()
	return ship.Data()
}

// remoteChild returns the stitched SpanRemote child of a ship span, or
// nil when the footer brought none.
func remoteChild(sp *obs.SpanData) *obs.SpanData {
	for _, c := range sp.Children {
		if c.Kind == obs.SpanRemote.String() {
			return c
		}
	}
	return nil
}

// TestTraceTrailerStitch is the happy path of federation-wide tracing:
// the remote parse/exec/stream subtree trails the rows in the stream's
// footer and lands under the mediator's ship span, with the
// remote-compute share recorded for the WAN split.
func TestTraceTrailerStitch(t *testing.T) {
	_, cl := startRelServer(t, 600)
	ship := runTracedScan(t, cl, 600)

	remote := remoteChild(ship)
	if remote == nil {
		t.Fatalf("no SpanRemote stitched under ship span; children: %v", ship.Children)
	}
	if remote.Name != "remote1" {
		t.Errorf("remote span name = %q, want source name %q", remote.Name, "remote1")
	}
	kinds := map[string]*obs.SpanData{}
	for _, c := range remote.Children {
		kinds[c.Kind] = c
	}
	for _, want := range []obs.SpanKind{obs.SpanParse, obs.SpanExec, obs.SpanStream} {
		if kinds[want.String()] == nil {
			t.Errorf("remote subtree missing %s span", want)
		}
	}
	if st := kinds[obs.SpanStream.String()]; st != nil {
		if rows, _ := st.Attr("rows"); rows != "600" {
			t.Errorf("stream span rows = %q, want 600", rows)
		}
	}
	if _, ok := ship.Attr("remote_us"); !ok {
		t.Error("ship span missing remote_us (WAN split input)")
	}
	scan(t, cl, ctx, 600)
}

// TestServedSubQueryLogsItsPhases: gisd -query-log's record of a traced
// sub-query sums every phase under its remote span, the stream that
// carried its rows included.
func TestServedSubQueryLogsItsPhases(t *testing.T) {
	srv, err := Serve(context.Background(), "127.0.0.1:0", itemsStore(t, 600))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	logged := make(lineChan, 4)
	srv.Queries.SetStructured(obs.NewStructuredLog(logged, 1, nil))
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	runTracedScan(t, cl, 600)
	var rec obs.QueryLogRecord
	select {
	case line := <-logged:
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record %s: %v", line, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the served sub-query logged no record")
	}
	for _, phase := range []string{"parse", "exec", "stream"} {
		if _, ok := rec.PhasesUS[phase]; !ok {
			t.Errorf("phases_us = %v, want %s", rec.PhasesUS, phase)
		}
	}
}

// lineChan is a writer that hands each write to whoever reads it.
type lineChan chan []byte

func (c lineChan) Write(p []byte) (int, error) {
	c <- append([]byte(nil), p...)
	return len(p), nil
}

// scan drains a full-table scan of n rows under sctx.
func scan(t *testing.T, cl *Client, sctx context.Context, n int) {
	t.Helper()
	it, err := cl.Execute(sctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := source.Drain(it); err != nil || len(rows) != n {
		t.Fatalf("scan = %d rows, %v; want %d", len(rows), err, n)
	}
}

// TestTraceUntracedRequestCompat pins the wire format contract from the
// outside: a request whose header names no trace is answered by one
// msgEnd, the rows and nothing after them.
func TestTraceUntracedRequestCompat(t *testing.T) {
	_, cl := startRelServer(t, 50)
	fc := greetedConn(t, cl)
	var e Encoder
	e.execHeader(execHeader{})
	if err := e.Query(source.NewScan("items")); err != nil {
		t.Fatal(err)
	}
	if err := fc.writeFrame(ctx, msgExecute, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := fc.readFrame(ctx)
	if err != nil || tag != msgEnd {
		t.Fatalf("frame = tag %d, %v; want tag %d", tag, err, msgEnd)
	}
	d := NewDecoder(payload)
	if rows, _, err := d.rowBatch(nil, nil); err != nil || len(rows) != 50 {
		t.Fatalf("msgEnd carries %d rows, %v; want all 50", len(rows), err)
	}
	if d.Remaining() != 0 {
		t.Errorf("untraced msgEnd carries % x after its rows, want no footer", payload[d.pos:])
	}
}

// TestTracedStreamCostsTheSameFrames: the footer rides in msgEnd behind
// the last rows, so a traced sub-query is msgExecute → msgRows × ⌊rows/256⌋,
// msgEnd like an untraced one, and nothing after it.
func TestTracedStreamCostsTheSameFrames(t *testing.T) {
	_, cl := startRelServer(t, 600, WithName("framecount"))
	in := obs.Default().Counter("wire.client.framecount.frames_in")
	out := obs.Default().Counter("wire.client.framecount.frames_out")
	frames := func(run func()) (int64, int64) {
		i, o := in.Value(), out.Value()
		run()
		return in.Value() - i, out.Value() - o
	}
	ui, uo := frames(func() { scan(t, cl, ctx, 600) })
	ti, to := frames(func() {
		if remoteChild(runTracedScan(t, cl, 600)) == nil {
			t.Error("the traced scan stitched no remote subtree")
		}
	})
	if ui != 3 || uo != 1 {
		t.Errorf("untraced scan of 600 rows: %d frames in, %d out; want 3 (2 × msgRows, msgEnd with 88 rows) and 1", ui, uo)
	}
	if ti != ui || to != uo {
		t.Errorf("traced scan: %d frames in, %d out; untraced: %d, %d", ti, to, ui, uo)
	}
}

// shortFooter is a connection on which every msgEnd with a footer
// arrives with the footer cut in half — by a middlebox that rewrites the
// length too, so the frame is whole, its rows are intact and only the
// footer is wrong.
type shortFooter struct {
	net.Conn
	buf []byte // of the frame being handed out
}

func (c *shortFooter) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		var hdr [5]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(c.Conn, payload); err != nil {
			return 0, err
		}
		if hdr[4] == msgEnd {
			d := NewDecoder(payload)
			if _, _, err := d.rowBatch(nil, nil); err != nil {
				return 0, err
			}
			payload = payload[:d.pos+d.Remaining()/2]
			binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		}
		c.buf = append(hdr[:], payload...)
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

// TestUndecodableFooterCostsOnlyTheTrace: a footer that does not decode
// leaves the rows, a clean end of stream and a mediator-only trace, and
// — the frame was read whole — the same connection, back in the pool
// and serving the next call.
func TestUndecodableFooterCostsOnlyTheTrace(t *testing.T) {
	_, cl := startRelServer(t, 50)
	fc := cl.pool[0]
	fc.rw = &shortFooter{Conn: fc.rw}
	ship := runTracedScan(t, cl, 50) // drains to io.EOF, or fails the test
	if remoteChild(ship) != nil {
		t.Error("half a footer stitched a remote subtree")
	}
	if _, ok := ship.Attr("remote_us"); ok {
		t.Error("half a footer set remote_us")
	}
	if len(cl.pool) != 1 || cl.pool[0] != fc {
		t.Fatalf("pool after the stream = %v, want the connection that carried it", cl.pool)
	}
	scan(t, cl, ctx, 50) // on the pool's only connection
	if len(cl.pool) != 1 || cl.pool[0] != fc {
		t.Errorf("pool after the next call = %v, want the same connection still", cl.pool)
	}
}

// chattySource is a relstore that leaves a span per page under the
// caller's, so its remote subtree is as large as the test wants.
type chattySource struct {
	*relstore.Store
	pages int
}

func (s *chattySource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	for i := 0; i < s.pages; i++ {
		_, sp := obs.StartSpan(ctx, obs.SpanFetch, fmt.Sprintf("page %04d of a store that reports every single one", i))
		sp.End()
	}
	return s.Store.Execute(ctx, q)
}

// TestFooterFitsThePeersFrameBound: a subtree larger than the frame the
// client said it reads arrives capped — and says by how much — or, when
// not even its root fits, not at all; the stream ends cleanly either way.
func TestFooterFitsThePeersFrameBound(t *testing.T) {
	srv, err := Serve(ctx, "127.0.0.1:0", &chattySource{Store: stressStore(t, 3), pages: 400})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func(maxRead int) *Client {
		cl, err := DialContext(ctx, srv.Addr(), WithMaxFrameBytes(maxRead))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	// 400 page spans of some 70 bytes each do not fit 4 KiB.
	remote := remoteChild(runTracedScan(t, dial(4096), 3))
	if remote == nil {
		t.Fatal("a subtree over the bound was dropped, want it capped")
	}
	dropped, ok := remote.Attr("truncated_spans")
	if n := len(remote.Children); !ok || n == 0 || n >= 400 {
		t.Errorf("capped subtree has %d children, truncated_spans=%q; want fewer than all and the count of the rest", n, dropped)
	}
	// Its root alone — kind, name, times, trace id — is over 64 bytes.
	if remote := remoteChild(runTracedScan(t, dial(64), 3)); remote != nil {
		t.Errorf("a 64-byte bound let through a subtree of %d spans", obs.CountSpanData(remote))
	}
}

// TestFooterBesideTheLastRows: a footer that fits the peer's frame bound
// alone but not beside the last rows does not displace them — they go in
// a msgRows of their own, and msgEnd carries the footer alone.
func TestFooterBesideTheLastRows(t *testing.T) {
	const n = 200 // some 3.4 KB of rows, under the 4 KiB bound with no footer
	srv, err := Serve(ctx, "127.0.0.1:0", &chattySource{Store: itemsStore(t, n), pages: 400})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr(), WithMaxFrameBytes(4096), WithName("beside"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	in := obs.Default().Counter("wire.client.beside.frames_in")
	before := in.Value()
	scan(t, cl, ctx, n)
	if got := in.Value() - before; got != 1 {
		t.Fatalf("an untraced scan of %d rows took %d frames, want 1", n, got)
	}
	before = in.Value()
	remote := remoteChild(runTracedScan(t, cl, n))
	if got := in.Value() - before; got != 2 {
		t.Errorf("a traced scan whose footer does not fit beside its rows took %d frames, want 2", got)
	}
	if remote == nil || len(remote.Children) == 0 {
		t.Errorf("the footer sent alone stitched %v, want a capped remote subtree", remote)
	}
}

// TestSpanCodecRoundTrip round-trips a span subtree through the wire
// codec.
func TestSpanCodecRoundTrip(t *testing.T) {
	in := &obs.SpanData{
		Kind:       "remote",
		Name:       "ny",
		Start:      time.UnixMicro(1234567890123456),
		DurationUS: 4200,
		Attrs:      []obs.Attr{{Key: "trace_id", Value: "deadbeef"}, {Key: "rows", Value: "7"}},
		Children: []*obs.SpanData{
			{Kind: "parse", Name: "rebind", Start: time.UnixMicro(1234567890123460), DurationUS: 10},
			{
				Kind: "stream", Name: "rows", Start: time.UnixMicro(1234567890123500), DurationUS: 4000,
				Attrs: []obs.Attr{{Key: "rows", Value: "7"}},
			},
		},
	}
	var e Encoder
	e.Span(in)
	out, err := NewDecoder(e.Bytes()).Span()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// A truncated payload must fail cleanly, not panic or over-allocate.
	for cut := 1; cut < len(e.Bytes()); cut += 7 {
		if _, err := NewDecoder(e.Bytes()[:cut]).Span(); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", cut)
		}
	}
}
