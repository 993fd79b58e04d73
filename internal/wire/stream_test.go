package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/types"
)

// A client reads a result stream from a peer it does not control. A
// scripted peer on the other end of a synchronous pipe answers one
// msgExecute with whatever frames the script holds.

// frame is one frame of a script.
type frame struct {
	tag     byte
	payload []byte
}

// ends reports whether f ends the conversation for the client: a frame
// that is not a batch of rows ends the stream, or fails it.
func (f frame) ends() bool { return f.tag != msgRows }

// streamResult is how a scripted stream ended for the client.
type streamResult struct {
	rows   int
	err    error // nil: the stream ended at msgEnd
	pooled bool  // the connection came back to the client's pool
	sync   error // pooled: what the next request on it got
}

// playStream plays script, up to the frame that ends the conversation,
// as the answer to one msgExecute and drains the stream the client reads.
// A peer whose script ends the conversation then answers the next
// request with one table, "t"; one whose script runs out hangs up. The
// stream runs traced, under a ship span, so a footer is decoded and
// stitched in: every span of the snapshot must be of a kind this side
// knows, whatever kind names the footer carried.
func playStream(t testing.TB, script []frame) streamResult {
	t.Helper()
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	a, b := net.Pipe()
	defer a.Close()
	cl := &Client{addr: "pipe", name: "pipe", maxFrameBytes: maxFrame, baseCtx: dctx,
		pool: []*frameConn{newFrameConn(b, SimLink{}, SimLink{})}}
	defer cl.Close()
	peer := make(chan struct{})
	go func() {
		defer close(peer)
		fc := newFrameConn(a, SimLink{}, SimLink{})
		if _, _, err := fc.readFrame(dctx); err != nil {
			return
		}
		ended := false
		for _, f := range script {
			if fc.writeFrame(dctx, f.tag, f.payload) != nil {
				return
			}
			if ended = f.ends(); ended {
				break
			}
		}
		if !ended {
			a.Close()
			return
		}
		// The client reads the answer to its next request here if the
		// connection is in sync; one it discarded answers nothing.
		if _, _, err := fc.readFrame(dctx); err != nil {
			return
		}
		var e Encoder
		e.Uvarint(1)
		e.String("t")
		_ = fc.writeFrame(dctx, msgOK, e.Bytes())
	}()

	var res streamResult
	tctx, ship := obs.StartSpan(obs.WithTrace(dctx, obs.NewTrace("played")), obs.SpanShip, "t")
	it, err := cl.Execute(tctx, source.NewScan("t"))
	if err == nil {
		var rows []types.Row
		rows, err = source.Drain(it)
		res.rows = len(rows)
		it.Close()
	}
	res.err = err
	ship.End()
	var known func(d *obs.SpanData)
	known = func(d *obs.SpanData) {
		if _, ok := obs.KindFromString(d.Kind); !ok {
			t.Fatalf("a stitched span reads as kind %q", d.Kind)
		}
		for _, c := range d.Children {
			known(c)
		}
	}
	known(ship.Data())
	if res.pooled = len(cl.pool) == 1; res.pooled {
		var tables []string
		if tables, res.sync = cl.Tables(dctx); res.sync == nil && (len(tables) != 1 || tables[0] != "t") {
			res.sync = errors.New("the next answer was not the peer's")
		}
	}
	cl.Close()
	select {
	case <-peer:
	case <-time.After(5 * time.Second):
		t.Fatal("the scripted peer is still talking 5 s after the stream ended")
	}
	return res
}

// endOf is a msgEnd payload: the last rows, then footer.
func endOf(rows []types.Row, footer []byte) []byte {
	return append(frameOf(rows), footer...)
}

// TestEmptyRowsFrameFailsTheStream: a msgRows frame of no rows delivers
// nothing, and a peer could send them without end. The client reads it
// as the protocol error it is, fails the stream and discards the
// connection, as it does an unexpected tag. A msgEnd of no rows is the
// end of the stream.
func TestEmptyRowsFrameFailsTheStream(t *testing.T) {
	one := frameOf([]types.Row{{types.NewInt(1)}})
	res := playStream(t, []frame{{msgRows, one}, {msgRows, frameOf(nil)}, {msgEnd, endOf(nil, nil)}})
	if res.err == nil || res.pooled {
		t.Fatalf("a stream with an empty rows frame: %d rows, %v, connection pooled %v; want an error and the connection discarded", res.rows, res.err, res.pooled)
	}
	res = playStream(t, []frame{{msgRows, one}, {msgEnd, endOf(nil, nil)}})
	if res.err != nil || res.rows != 1 || !res.pooled || res.sync != nil {
		t.Fatalf("a stream of one row: %d rows, %v, pooled %v (%v)", res.rows, res.err, res.pooled, res.sync)
	}
}

// TestErrorAfterRowsKeepsTheConnection: a msgErr mid-stream fails the
// stream with the peer's error, and — it was read whole, and the server
// has gone back to reading requests — the connection comes back to the
// pool in sync.
func TestErrorAfterRowsKeepsTheConnection(t *testing.T) {
	one := frameOf([]types.Row{{types.NewInt(1)}})
	var e Encoder
	e.String("source failed mid-scan")
	res := playStream(t, []frame{{msgRows, one}, {msgErr, e.Bytes()}})
	if res.err == nil || res.err.Error() != "source failed mid-scan" {
		t.Fatalf("a stream ended by msgErr: %d rows, %v; want the peer's error", res.rows, res.err)
	}
	if !res.pooled || res.sync != nil {
		t.Fatalf("a stream ended by a whole msgErr: pooled %v (%v); want the connection back and in sync", res.pooled, res.sync)
	}
}

// TestLastRowsEndTheStream: the last rows ride in msgEnd, so a consumer
// that has read every row has read the end of the stream, and closing it
// without asking for io.EOF gives the connection back: the next call runs
// on it, with no new hello.
func TestLastRowsEndTheStream(t *testing.T) {
	_, cl := startRelServer(t, 10, WithName("lastrows"))
	fc := cl.pool[0]
	out := obs.Default().Counter("wire.client.lastrows.frames_out")
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := it.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	it.Close()
	if len(cl.pool) != 1 || cl.pool[0] != fc {
		t.Fatalf("pool after reading every row = %v, want the connection that carried them", cl.pool)
	}
	before := out.Value()
	if tables, err := cl.Tables(ctx); err != nil || len(tables) != 1 {
		t.Fatalf("the next call: %v, %v", tables, err)
	}
	if sent := out.Value() - before; sent != 1 || len(cl.pool) != 1 || cl.pool[0] != fc {
		t.Errorf("the next call sent %d frames, pool %v; want 1 (no hello) on the same connection", sent, cl.pool)
	}
}

// streamVerdict is how a client must end the conversation script plays:
// at the first frame that is not a batch of one or more rows. A msgEnd
// whose rows decode ends the stream cleanly, with that many rows more; a
// whole msgErr fails it; either leaves the connection in sync. Anything
// else — a rows body that does not decode, an empty msgRows, a tag out of
// place, a script that runs out — fails it and costs the connection.
func streamVerdict(script []frame) (rows int, fails, pooled bool) {
	for _, f := range script {
		batch, _, err := NewDecoder(f.payload).rowBatch(nil, nil)
		switch {
		case f.tag == msgRows && err == nil && len(batch) > 0:
			rows += len(batch)
			continue
		case f.tag == msgEnd && err == nil:
			return rows + len(batch), false, true
		case f.tag == msgErr:
			return rows, true, true
		}
		return rows, true, false
	}
	return rows, true, false
}

// FuzzStream plays an arbitrary frame sequence into the client's stream
// reader: each frame is a tag byte, a length byte and that many bytes of
// payload, and a script is at most 64 frames. Whatever the frames: no
// panic, never a bare io.EOF, and the stream ends as streamVerdict says —
// cleanly with every row at a msgEnd, or in an error — with the
// connection back in sync when the last frame read was a whole msgEnd or
// msgErr, and discarded otherwise: a failed stream comes back pooled iff
// its last frame was a whole msgErr.
func FuzzStream(f *testing.F) {
	script := func(frames ...frame) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr.tag, byte(len(fr.payload)))
			out = append(out, fr.payload...)
		}
		return out
	}
	rows := []types.Row{{types.NewInt(1), types.NewString("a")}, {types.Null, types.NewFloat(2.5)}}
	var footer Encoder
	footer.Span(&obs.SpanData{Kind: "remote", Name: "src", DurationUS: 12, Attrs: []obs.Attr{{Key: "rows", Value: "2"}}})
	f.Add(script(frame{msgRows, frameOf(rows)}, frame{msgEnd, endOf(rows, footer.Bytes())}))     // rows plus footer in msgEnd
	f.Add(script(frame{msgEnd, endOf(nil, nil)}))                                                // a msgEnd of zero rows
	f.Add(script(frame{msgRows, frameOf(nil)}, frame{msgEnd, endOf(nil, nil)}))                  // an empty msgRows
	f.Add(script(frame{msgRows, frameOf(rows)}, frame{msgEnd, endOf(rows, []byte{0xff, 0x07})})) // a garbage footer after good rows
	f.Add(script(frame{msgRows, frameOf(rows)}, frame{99, []byte{1}}))                           // an unknown tag
	f.Add(script(frame{msgErr, []byte{4, 'n', 'o', 'p', 'e'}}, frame{msgEnd, endOf(rows, nil)})) // a leading msgErr
	// A footer twenty spans deep whose innermost kind has no name here.
	deep := &obs.SpanData{Kind: "future", Start: time.UnixMicro(0)}
	for i := 0; i < 20; i++ {
		deep = &obs.SpanData{Kind: "exec", Start: time.UnixMicro(0), Children: []*obs.SpanData{deep}}
	}
	var nested Encoder
	nested.Span(deep)
	f.Add(script(frame{msgEnd, endOf(nil, nested.Bytes())}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames []frame
		for len(data) >= 2 && len(frames) < 64 {
			n := min(int(data[1]), len(data)-2)
			frames = append(frames, frame{data[0], data[2 : 2+n]})
			data = data[2+n:]
		}
		res := playStream(t, frames)
		rows, fails, pooled := streamVerdict(frames)
		switch {
		case errors.Is(res.err, io.EOF):
			t.Fatalf("a stream ended in a bare %v", res.err)
		case (res.err != nil) != fails:
			t.Fatalf("the stream ended in %v after %d rows; want it to fail: %v", res.err, res.rows, fails)
		case !fails && res.rows != rows:
			t.Fatalf("the stream ended cleanly with %d rows, want %d", res.rows, rows)
		case res.pooled != pooled:
			t.Fatalf("the stream ended in %v with its connection pooled: %v, want %v", res.err, res.pooled, pooled)
		case res.pooled && res.sync != nil:
			t.Fatalf("the connection came back out of sync: %v", res.sync)
		}
	})
}

// TestInjectedFaultEndsTheStream: a transient fault injected before a
// mid-stream msgRows is answered msgErr, and the server writes nothing
// after it — a client gives the connection back on a whole msgErr, so a
// frame that followed would be read as the answer to its next request.
func TestInjectedFaultEndsTheStream(t *testing.T) {
	plan, err := faults.ParsePlan("seed=1;*:err=1,ops=read")
	if err != nil {
		t.Fatal(err)
	}
	it, err := itemsStore(t, 2*rowBatchSize).Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer b.Close()
	fc := newFrameConn(a, SimLink{}, SimLink{})
	fc.inj = plan.Link("pipe")
	served := make(chan error, 1)
	go func() {
		served <- (&Server{}).streamRows(ctx, fc, new(Encoder), it, nil)
		a.Close()
	}()
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	peer := newFrameConn(b, SimLink{}, SimLink{})
	tag, payload, err := peer.readFrame(dctx)
	if err != nil || tag != msgErr {
		t.Fatalf("first frame = tag %d, %v; want msgErr", tag, err)
	}
	if _, err := checkResp(tag, payload); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Errorf("msgErr carries %v, want the injected fault", err)
	}
	if tag, _, err := peer.readFrame(dctx); err == nil {
		t.Errorf("the server wrote tag %d after the msgErr that ended the stream", tag)
	}
	b.Close() // a server still writing fails instead of blocking
	if err := <-served; err != nil {
		t.Errorf("streamRows = %v, want nil: the fault was reported", err)
	}
}
