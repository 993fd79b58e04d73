package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/docstore"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// --- one-way result streams ----------------------------------------

// longStreamRows is 96 frames of rows, several times what the socket
// buffers hold, so a stream of that many only completes if the server
// keeps writing as the consumer drains.
const longStreamRows = 96 * rowBatchSize

// TestStreamsCompleteRoundAfterRound: one pooled connection carries
// three long streams in turn, each in protocol sync for the next.
func TestStreamsCompleteRoundAfterRound(t *testing.T) {
	_, cl := startRelServer(t, longStreamRows)
	for round := 0; round < 3; round++ {
		it, err := cl.Execute(ctx, source.NewScan("items"))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rows, err := source.Drain(it)
		if err != nil || len(rows) != longStreamRows {
			t.Fatalf("round %d: %d rows, %v", round, len(rows), err)
		}
	}
}

func TestSlowConsumerStreamsCompletely(t *testing.T) {
	_, cl := startRelServer(t, longStreamRows)
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	// Consume with pauses: the server must stall in its writes, not error.
	n := 0
	for {
		_, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("row %d: %v", n, err)
		}
		n++
		if n%(16*rowBatchSize) == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if n != longStreamRows {
		t.Fatalf("slow consumer got %d rows, want %d", n, longStreamRows)
	}
}

// --- the handshake is mandatory --------------------------------------

// rawConn opens a bare framed connection to cl's server, bypassing the
// client's own handshake.
func rawConn(t testing.TB, cl *Client) *frameConn {
	t.Helper()
	conn, err := net.Dial("tcp", cl.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return newFrameConn(conn, SimLink{}, SimLink{})
}

// greetedConn is a rawConn that has said hello, so a handler is serving
// it and it is idle.
func greetedConn(t testing.TB, cl *Client) *frameConn {
	t.Helper()
	fc := rawConn(t, cl)
	var e Encoder
	e.hello(&hello{Version: helloVersion, MaxRead: maxFrame})
	tag, payload, err := fc.call(ctx, msgHello, e.Bytes())
	if err == nil {
		_, err = checkResp(tag, payload)
	}
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	return fc
}

// expectRejected reads the server's answer to a handshake violation: one
// msgErr naming the problem, then a closed connection.
func expectRejected(t *testing.T, fc *frameConn, wantInMsg string) {
	t.Helper()
	tag, payload, err := fc.readFrame(ctx)
	if err != nil {
		t.Fatalf("no answer before close: %v", err)
	}
	if tag != msgErr {
		t.Fatalf("answer tag = %d, want msgErr", tag)
	}
	if msg, _ := NewDecoder(payload).String(); !strings.Contains(msg, wantInMsg) {
		t.Errorf("rejection message = %q, want it to mention %q", msg, wantInMsg)
	}
	if _, _, err := fc.readFrame(ctx); err == nil {
		t.Error("connection still open after the rejection")
	}
}

func TestHelloVersionMismatchRejected(t *testing.T) {
	_, cl := startRelServer(t, 10)
	fc := rawConn(t, cl)
	var e Encoder
	e.hello(&hello{Version: helloVersion + 1, MaxRead: maxFrame})
	if err := fc.writeFrame(ctx, msgHello, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, fc, "hello version")
}

func TestRequestBeforeHelloRejected(t *testing.T) {
	_, cl := startRelServer(t, 10)
	fc := rawConn(t, cl)
	var e Encoder
	e.execHeader(execHeader{})
	if err := e.Query(source.NewScan("items")); err != nil {
		t.Fatal(err)
	}
	if err := fc.writeFrame(ctx, msgExecute, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectRejected(t, fc, "before hello")
}

// dialAnswering dials a listener that answers the first frame it reads
// (the hello) with answer and hangs up, and returns the dial's error.
func dialAnswering(t *testing.T, answer func(fc *frameConn)) error {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := newFrameConn(conn, SimLink{}, SimLink{})
		if _, _, err := fc.readFrame(ctx); err == nil {
			answer(fc)
		}
	}()
	cl, err := DialContext(ctx, ln.Addr().String())
	if err == nil {
		cl.Close()
	}
	return err
}

// TestDialFailsWhenHelloRejected: a server that answers hello with
// anything but msgOK is not a peer; the dial reports its answer.
func TestDialFailsWhenHelloRejected(t *testing.T) {
	err := dialAnswering(t, func(fc *frameConn) {
		_ = sendErr(ctx, fc, errors.New("wire: unknown message tag 18"))
	})
	if err == nil {
		t.Fatal("dial succeeded against a server that rejected hello")
	}
	if !strings.Contains(err.Error(), "unknown message tag") {
		t.Errorf("dial error = %v, want the server's answer in it", err)
	}
}

// TestHelloCarriesCapabilities: what a source can be asked arrives with
// the handshake, for every wrapper class — and a client that could not
// learn it does not exist, where it used to plan FilterNone for good.
func TestHelloCarriesCapabilities(t *testing.T) {
	for _, src := range []source.Source{
		relstore.New("rel"), kvstore.New("kv"), docstore.New("doc"), filestore.New("file"),
	} {
		srv, err := Serve(ctx, "127.0.0.1:0", src)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := DialContext(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if got, want := cl.Capabilities(), src.Capabilities(); got != want {
			t.Errorf("%s: capabilities over the wire = %v, served source has %v", src.Name(), got, want)
		}
	}

	var full Encoder
	full.helloReply(&helloReply{MaxRead: maxFrame, Caps: relstore.New("rel").Capabilities()})
	for cut := 0; cut < len(full.Bytes()); cut++ {
		err := dialAnswering(t, func(fc *frameConn) { _ = fc.writeFrame(ctx, msgOK, full.Bytes()[:cut]) })
		if err == nil {
			t.Fatalf("dial succeeded on a hello reply cut to %d of %d bytes", cut, len(full.Bytes()))
		}
	}
}

// --- frame-size bounds ---------------------------------------------

func TestOversizedFrameRejectedBeforeAllocation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	writer := newFrameConn(a, SimLink{}, SimLink{})
	reader := newFrameConn(b, SimLink{}, SimLink{})
	reader.limit = 1024

	go writer.writeFrame(ctx, msgRows, make([]byte, 64<<10))
	_, _, err := reader.readFrame(ctx)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read = %v, want ErrFrameTooLarge", err)
	}

	// The write side refuses before touching the socket.
	writer.wlimit = 512
	if err := writer.writeFrame(ctx, msgRows, make([]byte, 1024)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write = %v, want ErrFrameTooLarge", err)
	}
}

// TestMaxFrameBytesTravelsInHello: the client advertises a tiny inbound
// bound, and the handshake lowers the server's outbound bound to it. 256
// rows no longer fit a frame, but each row does, so the server cuts its
// frames at the bound and the result arrives whole, in more frames. Only a
// row wider than the bound fails its stream, cleanly: the client survives
// and the next call works.
func TestMaxFrameBytesTravelsInHello(t *testing.T) {
	const n = 2000
	st, cl := startRelServer(t, n, WithMaxFrameBytes(1024), WithName("bounded"))
	in := obs.Default().Counter("wire.client.bounded.frames_in")
	before := in.Value()
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.DrainOwned(it)
	if err != nil || len(rows) != n {
		t.Fatalf("a scan of %d rows under a 1 KiB bound: %d rows, %v", n, len(rows), err)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Str() != fmt.Sprintf("c%d", i%5) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	frames := in.Value() - before // msgRows, then msgEnd with the last rows
	t.Logf("%d rows in %d frames", n, frames)
	if frames <= (n+rowBatchSize-1)/rowBatchSize {
		t.Errorf("%d rows arrived in %d frames under a 1 KiB bound, want more than %d", n, frames, (n+rowBatchSize-1)/rowBatchSize)
	}

	wide := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "note", Type: types.KindString})
	if err := st.CreateTable("wide", wide, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(ctx, "wide", []types.Row{{types.NewInt(1), types.NewString(strings.Repeat("x", 2000))}}); err != nil {
		t.Fatal(err)
	}
	it, err = cl.Execute(ctx, source.NewScan("wide"))
	if err == nil {
		_, err = source.Drain(it)
	}
	if err == nil || !strings.Contains(err.Error(), "frame bound") {
		t.Fatalf("a row wider than the advertised bound: %v, want the stream to fail naming the bound", err)
	}
	if tables, err := cl.Tables(ctx); err != nil || len(tables) != 2 {
		t.Fatalf("client must recover after a bounded-frame failure: %v, %v", tables, err)
	}
}

// --- deadline propagation ------------------------------------------

// blockingSource hangs every Next until the execute context is
// cancelled, then reports the cancellation; it stands in for a slow
// component store that only stops when told to.
type blockingSource struct {
	sawCancel chan struct{}
	once      sync.Once
}

func (b *blockingSource) Name() string                             { return "blocky" }
func (b *blockingSource) Tables(context.Context) ([]string, error) { return []string{"t"}, nil }
func (b *blockingSource) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterFull}
}
func (b *blockingSource) TableInfo(context.Context, string) (*source.TableInfo, error) {
	return &source.TableInfo{Schema: types.NewSchema(types.Column{Name: "id", Type: types.KindInt}), RowCount: 1}, nil
}
func (b *blockingSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	return &blockingIter{src: b, ctx: ctx}, nil
}

type blockingIter struct {
	src *blockingSource
	ctx context.Context
}

func (it *blockingIter) Next() (types.Row, error) {
	<-it.ctx.Done()
	it.src.once.Do(func() { close(it.src.sawCancel) })
	return nil, it.ctx.Err()
}
func (it *blockingIter) Close() error { return nil }

func TestDeadlinePropagationCancelsRemoteFragment(t *testing.T) {
	src := &blockingSource{sawCancel: make(chan struct{})}
	srv, err := Serve(context.Background(), "127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	dctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	it, err := cl.Execute(dctx, source.NewScan("t"))
	if err == nil {
		_, err = it.Next()
	}
	if err == nil {
		t.Fatal("a blocked stream under a deadline must fail")
	}
	// The acceptance bar: the component store's execute context observes
	// the cancellation — the deadline rode the wire, the server armed it,
	// and the fragment stopped on its own machine.
	select {
	case <-src.sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("component store never observed the propagated cancellation")
	}
}

func TestExpiredDeadlineFailsFast(t *testing.T) {
	_, cl := startRelServer(t, 10)
	dctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cl.Execute(dctx, source.NewScan("items")); err == nil {
		t.Fatal("an already-expired deadline must not ship the fragment")
	}
}

// --- server-side admission ------------------------------------------

// slowSource serves rows with a fixed delay per Execute so concurrent
// requests overlap and the admission slot stays occupied.
type slowSource struct {
	hold time.Duration
}

func (s *slowSource) Name() string                             { return "slow" }
func (s *slowSource) Tables(context.Context) ([]string, error) { return []string{"t"}, nil }
func (s *slowSource) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterFull}
}
func (s *slowSource) TableInfo(context.Context, string) (*source.TableInfo, error) {
	return &source.TableInfo{Schema: types.NewSchema(types.Column{Name: "id", Type: types.KindInt}), RowCount: 1}, nil
}
func (s *slowSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	return &slowIter{ctx: ctx, hold: s.hold}, nil
}

type slowIter struct {
	ctx  context.Context
	hold time.Duration
	done bool
}

func (it *slowIter) Next() (types.Row, error) {
	if it.done {
		return nil, io.EOF
	}
	it.done = true
	select {
	case <-time.After(it.hold):
		return types.Row{types.NewInt(1)}, nil
	case <-it.ctx.Done():
		return nil, it.ctx.Err()
	}
}
func (it *slowIter) Close() error { return nil }

func TestServerAdmissionShedsTyped(t *testing.T) {
	ctrl := admission.New(admission.Config{MaxInFlight: 1, MaxQueue: 1, MaxWait: 30 * time.Millisecond})
	srv, err := Serve(context.Background(), "127.0.0.1:0", &slowSource{hold: 400 * time.Millisecond},
		WithAdmission(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr(), WithTenant("acme"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	const clients = 4
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it, err := cl.Execute(ctx, source.NewScan("t"))
			if err == nil {
				_, err = source.Drain(it)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, shed int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, admission.ErrOverload):
			shed++
			var oe *admission.OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("overload error lost its type over the wire: %v", err)
			} else if oe.Tenant != "acme" {
				t.Errorf("shed tenant = %q, want acme (hello must carry tenancy)", oe.Tenant)
			}
		default:
			t.Errorf("unexpected hard failure: %v", err)
		}
	}
	if ok == 0 {
		t.Error("at least one request must be admitted")
	}
	if shed == 0 {
		t.Error("overload must shed with a typed, wire-travelling ErrOverload")
	}
}

// --- graceful drain -------------------------------------------------

func TestShutdownDrainsInFlightStream(t *testing.T) {
	srv, err := Serve(context.Background(), "127.0.0.1:0", &slowSource{hold: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	got := make(chan error, 1)
	go func() {
		it, err := cl.Execute(ctx, source.NewScan("t"))
		if err == nil {
			_, err = source.Drain(it)
		}
		got <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the stream get in flight

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("in-flight stream must finish during drain, got %v", err)
	}
	// New connections are refused after drain.
	if _, err := DialContext(ctx, srv.Addr()); err == nil {
		t.Error("dial after shutdown must fail")
	}
}

// TestShutdownDrainsOpenTransaction: a connection between a
// transaction's begin and its commit is in the middle of a
// conversation, not idle; a drain that closed it would make the
// participant abort what the coordinator is about to commit.
func TestShutdownDrainsOpenTransaction(t *testing.T) {
	st := stressStore(t, 10)
	srv, err := Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	tx, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "items", []types.Row{{types.NewInt(100), types.NewFloat(1)}}); err != nil {
		t.Fatal(err)
	}

	// An idle connection beside the transaction's: when the server hangs
	// up on it, Shutdown is passing over the connections, under srv.mu.
	idle := greetedConn(t, cl)

	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(sctx) }()
	if _, _, err := idle.readFrame(ctx); err == nil {
		t.Fatal("the idle connection was sent a frame, not closed")
	}
	srv.mu.Lock() // the pass is over: the transaction's connection was spared, or is gone
	srv.mu.Unlock()

	if err := tx.Prepare(ctx); err != nil {
		t.Fatalf("prepare during drain: %v", err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if sctx.Err() != nil {
		t.Error("Shutdown sat out its drain timeout although the last conversation had ended")
	}
	if info, err := st.TableInfo(ctx, "items"); err != nil || info.RowCount != 11 {
		t.Errorf("rows after the drained commit = %+v, %v; want 11", info, err)
	}
}

func TestShutdownForceClosesAfterTimeout(t *testing.T) {
	src := &blockingSource{sawCancel: make(chan struct{})}
	srv, err := Serve(context.Background(), "127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	go func() {
		it, err := cl.Execute(ctx, source.NewScan("t"))
		if err == nil {
			it.Next()
		}
	}()
	time.Sleep(50 * time.Millisecond)

	sctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	srv.Shutdown(sctx)
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown took %v; must force-close stragglers at the drain deadline", d)
	}
}
