package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// One connection, one conversation: what that buys, and what closing a
// connection means.

func itemRow(id int64) []types.Row {
	return []types.Row{{types.NewInt(id), types.NewString("tx"), types.NewFloat(0)}}
}

// within runs fn and fails the test if it has not returned after d: the
// defects these tests guard against are hangs.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// TestTwoTransactionsOneClient: two transactions to one source are two
// conversations on two connections. B's write waits for A's lock in the
// store, where it belongs — not in front of A's own prepare on a shared
// connection, which is a deadlock — and metadata is answered throughout.
func TestTwoTransactionsOneClient(t *testing.T) {
	_, cl := startRelServer(t, 10)
	rowCount := func(when string) int64 {
		t.Helper()
		dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		info, err := cl.TableInfo(dctx, "items")
		if err != nil {
			t.Fatalf("TableInfo %s: %v", when, err)
		}
		return info.RowCount
	}

	a, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Insert(ctx, "items", itemRow(100)); err != nil {
		t.Fatal(err)
	}
	b, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bWrote := make(chan error, 1)
	go func() {
		_, err := b.Insert(ctx, "items", itemRow(101))
		bWrote <- err
	}()
	select {
	case err := <-bWrote:
		t.Fatalf("B's write finished (%v) while A held the store", err)
	case <-time.After(50 * time.Millisecond):
	}
	rowCount("while B waits for A")

	within(t, 5*time.Second, "A's prepare and commit behind B's blocked write", func() {
		if err := a.Prepare(ctx); err != nil {
			t.Errorf("A prepare: %v", err)
		}
		if err := a.Commit(ctx); err != nil {
			t.Errorf("A commit: %v", err)
		}
	})
	select {
	case err := <-bWrote:
		if err != nil {
			t.Fatalf("B's write after A committed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B's write never proceeded after A committed")
	}
	rowCount("while B holds the store")
	if err := b.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if n := rowCount("after both"); n != 12 {
		t.Errorf("rows after both transactions = %d, want 12", n)
	}
}

// TestAbandonedTransactionReleasesLock: a coordinator whose context is
// done cannot send an abort, so it closes the transaction's connection,
// and the server rolls back what a closed connection leaves open. The
// transaction stays lost: a later write fails rather than open another
// one on a fresh connection.
func TestAbandonedTransactionReleasesLock(t *testing.T) {
	st, srv, cl := servedItems(t)
	tx, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "items", itemRow(100)); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := tx.Abort(cctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Abort under a cancelled context = %v, want it to say the abort went unacknowledged", err)
	}
	if err := tx.Prepare(ctx); err == nil {
		t.Error("prepare after the transaction's connection is gone must fail")
	}
	if _, err := tx.Insert(ctx, "items", itemRow(102)); !errors.Is(err, errTxOver) {
		t.Errorf("write after the transaction's connection is gone = %v, want errTxOver", err)
	}
	holdsNoTransaction(t, srv)
	within(t, 5*time.Second, "a write after the abandoned transaction", func() {
		if _, err := cl.Insert(ctx, "items", itemRow(101)); err != nil {
			t.Errorf("autocommit insert: %v", err)
		}
	})
	if info, _ := st.TableInfo(ctx, "items"); info.RowCount != 11 {
		t.Errorf("rows = %d, want 11: the abandoned insert rolled back, the later one applied", info.RowCount)
	}
}

// TestRefusedFirstWriteOpensNothing: the server rolls back what a first
// write it refuses began, so it holds no transaction, and the client's
// stays unopened, its connection back in the pool: the next write opens
// it.
func TestRefusedFirstWriteOpensNothing(t *testing.T) {
	st, srv, cl := servedItems(t)
	tx, err := cl.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "items", itemRow(1)); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("first write of a held key = %v, want it refused", err)
	}
	holdsNoTransaction(t, srv)
	if len(cl.pool) != 1 {
		t.Errorf("%d pooled connections after the refused first write, want the one it ran on", len(cl.pool))
	}
	if _, err := tx.Insert(ctx, "items", itemRow(100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if info, _ := st.TableInfo(ctx, "items"); info.RowCount != 11 {
		t.Errorf("rows = %d, want 11: the second write's", info.RowCount)
	}
}

// servedItems serves itemsStore's ten rows and dials the server, which
// it returns too, for holdsNoTransaction.
func servedItems(t *testing.T) (*relstore.Store, *Server, *Client) {
	st := itemsStore(t, 10)
	srv, err := Serve(context.Background(), "127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return st, srv, cl
}

// holdsNoTransaction waits until no connection of srv holds an open
// transaction: a connection's busy flag is set while it does.
func holdsNoTransaction(t *testing.T, srv *Server) {
	t.Helper()
	within(t, 5*time.Second, "the server letting go of every transaction", func() {
		for held := true; held; time.Sleep(time.Millisecond) {
			srv.mu.Lock()
			held = false
			for _, busy := range srv.conns {
				held = held || busy.Load()
			}
			srv.mu.Unlock()
		}
	})
}

// TestSecondBeginOnConnectionRejected: the connection is the
// transaction's name, so it can name only one. A second write with
// Begin set is answered msgErr and applies nothing; the connection
// survives, and the first transaction commits on it.
func TestSecondBeginOnConnectionRejected(t *testing.T) {
	st, cl := startRelServer(t, 10)
	fc := greetedConn(t, cl)
	send := func(tag byte, req *writeReq) error {
		var e Encoder
		if req != nil {
			if err := e.writeReq(tag, req); err != nil {
				t.Fatal(err)
			}
		}
		rt, payload, err := fc.call(ctx, tag, e.Bytes())
		if err != nil {
			t.Fatalf("tag %d: no answer: %v", tag, err)
		}
		_, err = checkResp(rt, payload)
		return err
	}
	if err := send(msgInsert, &writeReq{Begin: true, Table: "items", Rows: itemRow(100)}); err != nil {
		t.Fatalf("first begin: %v", err)
	}
	if err := send(msgInsert, &writeReq{Begin: true, Table: "items", Rows: itemRow(101)}); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("second begin = %v, want msgErr saying a transaction is already open", err)
	}
	if err := send(msgCommit, nil); err != nil {
		t.Fatalf("commit of the first transaction: %v", err)
	}
	if info, _ := st.TableInfo(ctx, "items"); info.RowCount != 11 {
		t.Errorf("rows = %d, want 11: the first transaction's row, not the refused begin's", info.RowCount)
	}
}

// stallingSource answers TableInfo only after stall, for the first
// stalls calls; it stands in for a component system that has stopped
// answering without closing anything.
type stallingSource struct {
	slowSource
	stall  time.Duration
	stalls atomic.Int32
}

func (s *stallingSource) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	if s.stalls.Add(-1) >= 0 {
		select {
		case <-time.After(s.stall):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.slowSource.TableInfo(ctx, table)
}

// TestCallObservesDeadline: a deadline bounds a call that is blocked
// reading the answer, not only the simulated link's sleep; the error is
// the context's own, and the connection — its answer still owed — is
// not the one the next call gets.
func TestCallObservesDeadline(t *testing.T) {
	src := &stallingSource{stall: 3 * time.Second}
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
	// The dial's hello described t: take that answer, so the next one is
	// a round trip, and only then let the source stall.
	if _, err := cl.TableInfo(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	src.stalls.Store(1)

	dctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	info, err := cl.TableInfo(dctx, "t")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TableInfo under a 200ms deadline against a 3s source = %+v, %v; want context.DeadlineExceeded", info, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("returned after %v, want well under 1s", d)
	}
	within(t, 2*time.Second, "the call after the timed-out one", func() {
		if _, err := cl.TableInfo(ctx, "t"); err != nil {
			t.Errorf("next call on the client: %v", err)
		}
	})
}

// TestUnexpectedTagDiscardsConnection: after an answer that is neither
// msgOK nor msgErr the protocol state of the connection is unknown, so
// it does not go back to the pool. The fake peer answers the first
// msgTables on its first connection with a msgRows frame and leaves a
// stale msgOK queued behind it; every later connection it serves
// correctly. The second call must be answered on a fresh connection, not
// by the stale frame.
func TestUnexpectedTagDiscardsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tables := func(name string) []byte {
		var e Encoder
		e.Uvarint(1)
		e.String(name)
		return e.Bytes()
	}
	var conns atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			first := conns.Add(1) == 1
			go func() {
				defer conn.Close()
				fc := newFrameConn(conn, SimLink{}, SimLink{})
				for {
					tag, _, err := fc.readFrame(ctx)
					if err != nil {
						return
					}
					switch {
					case tag == msgHello:
						var e Encoder
						e.helloReply(&helloReply{MaxRead: maxFrame})
						err = fc.writeFrame(ctx, msgOK, e.Bytes())
					case first:
						if err = fc.writeFrame(ctx, msgRows, []byte{0}); err == nil {
							err = fc.writeFrame(ctx, msgOK, tables("stale"))
						}
					default:
						err = fc.writeFrame(ctx, msgOK, tables("fresh"))
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	cl, err := DialContext(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if got, err := cl.Tables(ctx); err == nil || !strings.Contains(err.Error(), "unexpected response tag") {
		t.Fatalf("Tables answered with msgRows = %v, %v; want an unexpected-tag error", got, err)
	}
	within(t, 2*time.Second, "the call after the out-of-sync one", func() {
		got, err := cl.Tables(ctx)
		if err != nil || len(got) != 1 || got[0] != "fresh" {
			t.Errorf("Tables after an out-of-sync answer = %v, %v; want [fresh] from a new connection", got, err)
		}
	})
	if n := conns.Load(); n != 2 {
		t.Errorf("peer saw %d connections, want 2: the out-of-sync one and its replacement", n)
	}
}
