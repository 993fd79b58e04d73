package wire

import (
	"context"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/relstore"
	"gis/internal/source"
)

// A result stream flows one way: after msgOK the server writes and the
// client reads, and nothing goes back until msgEnd. TCP's backpressure is
// the stream's flow control, bounded by socketBuffer.

// pipeClient serves src on one end of a synchronous in-memory pipe and
// returns a client whose pool holds the other end, greeted: no buffer of
// any size lies between the two.
func pipeClient(t *testing.T, src source.Source) *Client {
	t.Helper()
	a, b := net.Pipe()
	srv := &Server{src: src, maxFrameBytes: maxFrame, Logf: t.Logf}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.serveConn(ctx, a, new(atomic.Bool)) // ends when the test closes the pipe
	}()
	cl := &Client{addr: "pipe", name: "pipe", maxFrameBytes: maxFrame, baseCtx: ctx}
	t.Cleanup(func() {
		cl.Close()
		a.Close()
		<-served
	})
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	fc := newFrameConn(b, SimLink{}, SimLink{})
	rep, err := cl.handshake(hctx, fc, false)
	if err != nil {
		t.Fatal(err)
	}
	cl.caps, cl.pool = rep.Caps, []*frameConn{fc}
	return cl
}

// TestStreamOverSynchronousPipe: a stream of 40 frames completes over a
// transport with no buffer at all. A client that wrote to the server
// mid-stream would block there while the server blocks writing the next
// frame; the test's own deadline turns that deadlock into a failure.
func TestStreamOverSynchronousPipe(t *testing.T) {
	const n = 40 * rowBatchSize
	cl := pipeClient(t, itemsStore(t, n))
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	it, err := cl.Execute(dctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil || len(rows) != n {
		t.Fatalf("a 40-frame stream over a pipe: %d rows, %v", len(rows), err)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// The stream left the pipe in protocol sync for the next request.
	if tables, err := cl.Tables(dctx); err != nil || len(tables) != 1 {
		t.Fatalf("after the stream: %v, %v", tables, err)
	}
}

// TestStalledConsumerHoldsABoundedStream: a consumer that reads one row
// and stops stalls the server once the socket buffers are full. What the
// server has sent by then — in the kernel, and the one frame the client
// has read — is what a stalled consumer holds. The stream is more than
// ten times that, and resumes when the consumer does.
func TestStalledConsumerHoldsABoundedStream(t *testing.T) {
	const (
		n                   = 200_000
		maxFrames, maxBytes = 48, 192 << 10
	)
	st := relstore.New("stalled")
	if err := st.CreateTable("t", scanTable, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(ctx, "t", scanRows(0, n)); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ctx, "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	framesOut, bytesOut := srv.lm.framesOut, srv.lm.bytesOut
	f0, b0 := framesOut.Value(), bytesOut.Value()
	it, err := cl.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	source.Lend(it)
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	// The server has stalled when two readings 100 ms apart agree.
	frames, bytes := int64(-1), int64(-1)
	for give := time.Now().Add(20 * time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		f, b := framesOut.Value()-f0, bytesOut.Value()-b0
		if f == frames && b == bytes {
			break
		}
		frames, bytes = f, b
		if time.Now().After(give) {
			t.Fatalf("the server was still sending after 20 s: %d frames, %d bytes", frames, bytes)
		}
	}
	t.Logf("a stalled consumer holds %d frames, %.1f KiB (socket buffers of %d KiB)", frames, float64(bytes)/1024, socketBuffer>>10)
	if frames > maxFrames || bytes > maxBytes {
		t.Errorf("a stalled consumer holds %d frames and %d bytes, want at most %d and %d", frames, bytes, maxFrames, maxBytes)
	}

	rows := 1
	for {
		if _, err = it.Next(); err != nil {
			break
		}
		rows++
	}
	if total := bytesOut.Value() - b0; err != io.EOF || rows != n || total < 10*maxBytes {
		t.Errorf("the resumed stream: %d rows of %d, %v, %d bytes in all; want every row and at least %d bytes", rows, n, err, total, 10*maxBytes)
	}
}

// TestRetiredGrantTagIsAnError: tag 17 was the credit grant a client sent
// back mid-stream before helloVersion 5. A server answers it as any
// unknown request, with msgErr, and the connection serves the next one.
func TestRetiredGrantTagIsAnError(t *testing.T) {
	_, cl := startRelServer(t, 10)
	fc := greetedConn(t, cl)
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	const retiredGrant = 17
	tag, payload, err := fc.call(dctx, retiredGrant, []byte{16})
	if err != nil {
		t.Fatalf("tag 17: no answer: %v", err)
	}
	if _, err := checkResp(tag, payload); tag != msgErr || err == nil || !strings.Contains(err.Error(), "unknown message tag 17") {
		t.Errorf("tag 17: answer tag %d, %v; want msgErr naming the tag", tag, err)
	}
	tag, payload, err = fc.call(dctx, msgTables, nil)
	if err == nil {
		payload, err = checkResp(tag, payload)
	}
	if err != nil {
		t.Fatalf("the request after tag 17: %v", err)
	}
	if names, err := NewDecoder(payload).count(); err != nil || names != 1 {
		t.Errorf("the request after tag 17: %d tables, %v; want 1", names, err)
	}
}
