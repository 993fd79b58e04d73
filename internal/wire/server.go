package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// StatsProvider is implemented by sources that can report optimizer
// statistics (relstore does); the server exposes it over the wire.
type StatsProvider interface {
	Stats(table string) (*stats.TableStats, error)
}

// Server exposes one source.Source over TCP. The source's optional
// Writer and Transactional facets are served when implemented.
type Server struct {
	src source.Source
	ln  net.Listener

	mu     sync.Mutex
	nextTx uint64
	conns  map[net.Conn]*connTrack
	closed atomic.Bool
	wg     sync.WaitGroup
	// cancelConns cancels every handler's context. Force-close paths
	// must use it alongside closing the sockets: a handler blocked
	// inside a source call never touches its socket, so only context
	// cancellation can unblock it.
	cancelConns context.CancelFunc

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// Queries tracks in-flight and slow sub-queries executed against
	// this server's source (served by gisd -debug-addr).
	Queries *obs.QueryLog

	// lm counts this server's frames/bytes under wire.server.<name>.*.
	lm *linkMetrics

	// inj injects server-side faults (gisd -fault-plan); shared across
	// connections so the plan's decision sequence is per-link.
	inj *faults.Injector

	// admit, when set, gates every msgExecute through admission control:
	// over-limit requests are shed with a wire-marked OverloadError the
	// client decodes back into the typed form.
	admit *admission.Controller
	// creditWindow is the server's flow-control cap (msgRows frames in
	// flight per stream); the handshake grants min(client, server).
	creditWindow int
	// maxFrameBytes bounds inbound frames on every connection.
	maxFrameBytes int
}

// ServerOption configures a server before it starts accepting.
type ServerOption func(*Server)

// WithServerFaults makes the server inject the plan's faults for its
// own link (keyed by the source name, falling back to "*"): requests
// rejected with transient errors, connections dropped mid-stream,
// stalls, and partition windows — all seeded and reproducible.
func WithServerFaults(p *faults.Plan) ServerOption {
	return func(s *Server) { s.inj = p.Link(s.src.Name()) }
}

// WithAdmission gates every msgExecute through ctrl: requests over the
// in-flight cap or tenant quota are shed with a typed overload error
// instead of deepening the overload.
func WithAdmission(ctrl *admission.Controller) ServerOption {
	return func(s *Server) { s.admit = ctrl }
}

// WithServerCreditWindow overrides the server's flow-control cap
// (msgRows frames in flight per stream; 0 disables flow control). The
// effective per-connection window is min(client request, this cap).
func WithServerCreditWindow(frames int) ServerOption {
	return func(s *Server) { s.creditWindow = frames }
}

// WithServerMaxFrameBytes bounds inbound frames on every connection;
// larger frames are rejected with ErrFrameTooLarge before allocation.
func WithServerMaxFrameBytes(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxFrameBytes = n
		}
	}
}

// Serve starts serving src on addr (e.g. "127.0.0.1:0") and returns the
// running server. Use Addr to discover the bound address. ctx is the
// server's root context: every source call made on behalf of a client
// request derives from it, so cancelling it unblocks handlers stuck in
// a slow source (the listener itself is stopped with Close).
func Serve(ctx context.Context, addr string, src source.Source, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		src: src, ln: ln, conns: make(map[net.Conn]*connTrack), Logf: log.Printf,
		Queries:       obs.NewQueryLog(250*time.Millisecond, 64),
		lm:            newLinkMetrics("server", src.Name()),
		creditWindow:  defaultCreditWindow,
		maxFrameBytes: maxFrame,
	}
	for _, o := range opts {
		o(s)
	}
	cctx, cancel := context.WithCancel(ctx)
	s.cancelConns = cancel
	s.wg.Add(1)
	go s.acceptLoop(cctx)
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, force-closes every active connection, and
// waits for their handlers to exit.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.cancelConns()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close() // force-close; handlers report their own errors
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown drains the server: it stops accepting, closes idle
// connections immediately (an idle conn is a client's pooled socket,
// not work), lets connections with an in-flight request finish until
// ctx expires, then force-closes the stragglers. Always waits for every
// handler to exit before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for c, t := range s.conns {
		if !t.busy.Load() {
			_ = c.Close() // idle; the client will re-dial elsewhere
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelConns()
		return err
	case <-ctx.Done():
	}
	s.cancelConns()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close() // drain timeout: cut the remaining streams
	}
	s.mu.Unlock()
	<-done
	return err
}

// connTrack marks whether a connection is between requests (idle) or
// serving one; Shutdown closes idle connections without waiting.
type connTrack struct {
	busy atomic.Bool
}

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		tr := &connTrack{}
		s.mu.Lock()
		if s.closed.Load() {
			// Lost the race with Shutdown/Close: do not serve.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = tr
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				_ = conn.Close() // serveConn's error is the one that matters
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			err := s.serveConn(ctx, conn, tr)
			if err != nil && !errors.Is(err, io.EOF) && !s.closed.Load() && !benignNetErr(err) {
				s.Logf("wire server %s: connection error: %v", s.src.Name(), err)
			}
		}()
	}
}

// connState tracks per-connection transactions and the handshake's
// outcome: hello is set once the connection has been greeted.
type connState struct {
	txs    map[string]source.Tx
	hello  bool
	tenant string
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn, tr *connTrack) error {
	fc := newFrameConn(conn, SimLink{}, SimLink{})
	fc.metrics = s.lm
	fc.inj = s.inj
	fc.limit = s.maxFrameBytes
	st := &connState{txs: make(map[string]source.Tx)}
	defer func() {
		// Abort any transaction the client abandoned. The abort must run
		// even when the server's root context is already cancelled, so it
		// uses a context detached from ctx's cancellation.
		for _, tx := range st.txs {
			//lint:ignore ctxflow every abandoned transaction must be aborted even after the server context is cancelled; the loop is bounded by the connection's transaction count
			_ = tx.Abort(context.WithoutCancel(ctx))
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tag, payload, err := fc.readFrame(ctx)
		if err != nil {
			return err
		}
		tr.busy.Store(true)
		err = s.handle(ctx, fc, st, tag, payload)
		tr.busy.Store(false)
		if err != nil {
			return err
		}
	}
}

func sendErr(ctx context.Context, fc *frameConn, err error) error {
	var e Encoder
	e.String(err.Error())
	return fc.writeFrame(ctx, msgErr, e.Bytes())
}

// reject answers a handshake violation with msgErr and returns err, so
// the caller closes the connection: a peer that does not speak this
// protocol revision gets one explicit answer, not a conversation.
func reject(ctx context.Context, fc *frameConn, err error) error {
	if werr := sendErr(ctx, fc, err); werr != nil {
		return werr
	}
	return err
}

func (s *Server) handle(ctx context.Context, fc *frameConn, st *connState, tag byte, payload []byte) error {
	// Handshake and flow-control frames bypass the fault injector: they
	// are connection plumbing, not operations, and their arrival depends
	// on pool reuse and batch timing — routing them through the injector
	// would make seeded fault sequences non-reproducible.
	switch tag {
	case msgHello:
		return s.handleHello(ctx, fc, st, payload)
	case msgCredit:
		// A stale grant from a stream that already ended; the credit it
		// carries is void. Ignoring it here keeps pooled connections in
		// protocol sync.
		return nil
	}
	if !st.hello {
		return reject(ctx, fc, fmt.Errorf("wire: request tag %d before hello", tag))
	}
	// Server-side fault point: transient injections are reported to the
	// client as protocol errors (the conn survives); drops and
	// partitions kill the connection like a crashed component system.
	if err := fc.injure(ctx, classOfTag(tag)); err != nil {
		if errors.Is(err, faults.ErrInjected) {
			return sendErr(ctx, fc, err)
		}
		return err
	}
	d := NewDecoder(payload)
	switch tag {
	case msgTables:
		names, err := s.src.Tables(ctx)
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		var e Encoder
		e.Uvarint(uint64(len(names)))
		for _, n := range names {
			e.String(n)
		}
		return fc.writeFrame(ctx, msgOK, e.Bytes())

	case msgTableInfo:
		table, err := d.String()
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		info, err := s.src.TableInfo(ctx, table)
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		var e Encoder
		e.Schema(info.Schema)
		e.IntSlice(info.KeyColumns)
		e.Varint(info.RowCount)
		return fc.writeFrame(ctx, msgOK, e.Bytes())

	case msgCaps:
		c := s.src.Capabilities()
		var e Encoder
		e.Byte(byte(c.Filter))
		e.Bool(c.Project)
		e.Bool(c.Aggregate)
		e.Bool(c.Sort)
		e.Bool(c.Limit)
		e.Bool(c.Write)
		e.Bool(c.Txn)
		return fc.writeFrame(ctx, msgOK, e.Bytes())

	case msgStats:
		table, err := d.String()
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		sp, ok := s.src.(StatsProvider)
		if !ok {
			return sendErr(ctx, fc, fmt.Errorf("source %s does not provide statistics", s.src.Name()))
		}
		ts, err := sp.Stats(table)
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		var e Encoder
		encodeStats(&e, ts)
		return fc.writeFrame(ctx, msgOK, e.Bytes())

	case msgExecute:
		return s.handleExecute(ctx, fc, st, d)

	case msgBeginTx:
		t, ok := s.src.(source.Transactional)
		if !ok {
			return sendErr(ctx, fc, fmt.Errorf("source %s is not transactional", s.src.Name()))
		}
		tx, err := t.BeginTx(ctx)
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		s.mu.Lock()
		s.nextTx++
		id := strconv.FormatUint(s.nextTx, 10)
		s.mu.Unlock()
		st.txs[id] = tx
		var e Encoder
		e.String(id)
		return fc.writeFrame(ctx, msgOK, e.Bytes())

	case msgInsert:
		return s.handleWrite(ctx, fc, st, d, func(ctx context.Context, w source.Writer, table string, d *Decoder) (int64, error) {
			n, err := d.Uvarint()
			if err != nil {
				return 0, err
			}
			rows := make([]types.Row, n)
			for i := range rows {
				if rows[i], err = d.Row(); err != nil {
					return 0, err
				}
			}
			return w.Insert(ctx, table, rows)
		})

	case msgUpdate:
		return s.handleWrite(ctx, fc, st, d, func(ctx context.Context, w source.Writer, table string, d *Decoder) (int64, error) {
			filter, err := d.Expr()
			if err != nil {
				return 0, err
			}
			n, err := d.Uvarint()
			if err != nil {
				return 0, err
			}
			set := make([]source.SetClause, n)
			for i := range set {
				col, err := d.Varint()
				if err != nil {
					return 0, err
				}
				val, err := d.Expr()
				if err != nil {
					return 0, err
				}
				set[i] = source.SetClause{Col: int(col), Value: val}
			}
			info, err := s.src.TableInfo(ctx, table)
			if err != nil {
				return 0, err
			}
			if filter, err = rebindExpr(filter, info.Schema); err != nil {
				return 0, err
			}
			for i := range set {
				if set[i].Value, err = rebindExpr(set[i].Value, info.Schema); err != nil {
					return 0, err
				}
			}
			return w.Update(ctx, table, filter, set)
		})

	case msgDelete:
		return s.handleWrite(ctx, fc, st, d, func(ctx context.Context, w source.Writer, table string, d *Decoder) (int64, error) {
			filter, err := d.Expr()
			if err != nil {
				return 0, err
			}
			info, err := s.src.TableInfo(ctx, table)
			if err != nil {
				return 0, err
			}
			if filter, err = rebindExpr(filter, info.Schema); err != nil {
				return 0, err
			}
			return w.Delete(ctx, table, filter)
		})

	case msgPrepare, msgCommit, msgAbort:
		id, err := d.String()
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		tx, ok := st.txs[id]
		if !ok {
			return sendErr(ctx, fc, fmt.Errorf("unknown transaction %q", id))
		}
		switch tag {
		case msgPrepare:
			err = tx.Prepare(ctx)
		case msgCommit:
			err = tx.Commit(ctx)
			if err == nil {
				delete(st.txs, id)
			}
		case msgAbort:
			err = tx.Abort(ctx)
			delete(st.txs, id)
		}
		if err != nil {
			return sendErr(ctx, fc, err)
		}
		return fc.writeFrame(ctx, msgOK, nil)

	default:
		return sendErr(ctx, fc, fmt.Errorf("wire: unknown message tag %d", tag))
	}
}

// handleHello answers the per-connection handshake: check the protocol
// version, record the tenant, grant the negotiated credit window, and
// exchange frame-size bounds (each side lowers its outbound bound to
// the peer's inbound one).
func (s *Server) handleHello(ctx context.Context, fc *frameConn, st *connState, payload []byte) error {
	h, err := NewDecoder(payload).hello()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	if h.Version != helloVersion {
		return reject(ctx, fc, fmt.Errorf("wire: hello version %d, this server speaks %d", h.Version, helloVersion))
	}
	st.hello = true
	st.tenant = h.Tenant
	fc.window = negotiateWindow(h.Window, s.creditWindow)
	if h.MaxRead > 0 && h.MaxRead < fc.wlimit {
		fc.wlimit = h.MaxRead
	}
	var e Encoder
	e.helloReply(&helloReply{Version: helloVersion, Window: fc.window, MaxRead: s.maxFrameBytes})
	return fc.writeFrame(ctx, msgOK, e.Bytes())
}

// sendShed reports an admission shed to the client. Typed overload
// errors travel in marked string form so the client can reconstruct the
// reason and retryable hint; anything else degrades to a plain error.
func sendShed(ctx context.Context, fc *frameConn, err error) error {
	var oe *admission.OverloadError
	if errors.As(err, &oe) {
		var e Encoder
		e.String(oe.MarshalWire())
		return fc.writeFrame(ctx, msgErr, e.Bytes())
	}
	return sendErr(ctx, fc, err)
}

// handleExecute serves one msgExecute request: decode the query, the
// trace context, and the deadline budget; pass
// admission control; run the fragment (under a server-local trace when
// the mediator sent a sampled context) with the budget enforced as a
// context deadline; stream the rows; and then — best-effort — return
// the finished span subtree in a msgTrace trailer. The trailer travels
// strictly after msgEnd so its loss can never cost rows; the mediator
// degrades to its local-only trace.
func (s *Server) handleExecute(ctx context.Context, fc *frameConn, st *connState, d *Decoder) error {
	q, err := d.Query()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	tc, err := d.traceContext()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	budget, err := d.deadlineBudget()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	if budget > 0 {
		// The propagated deadline caps this fragment: when it fires, the
		// source's Execute/Next observe ctx cancellation and the stream
		// reports the expiry instead of pinning the connection.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	if s.admit != nil {
		actx, sess, err := s.admit.Admit(ctx, st.tenant)
		if err != nil {
			return sendShed(ctx, fc, err)
		}
		defer sess.Release()
		ctx = actx
	}
	rctx := ctx
	var tr *obs.Trace
	var root *obs.Span
	if tc != nil && tc.Sampled {
		tr = obs.NewTraceWithID(tc.TraceID, q.String())
		rctx = obs.WithTrace(ctx, tr)
		rctx, root = obs.StartSpan(rctx, obs.SpanRemote, s.src.Name())
		root.SetAttr("trace_id", tc.TraceID)
		root.SetInt("parent_span", int64(tc.ParentSpan))
	}
	done, streamErr := s.streamQuery(rctx, fc, q, tr != nil)
	root.End()
	// Only a stream that reached its flagged msgEnd owes a trailer; an
	// error stream (msgErr) left the client not reading one.
	if streamErr != nil || tr == nil || !done {
		return streamErr
	}
	// Trailer fault point (ops=trace): a transient injection skips the
	// trailer the stream already promised — the mediator's read times
	// out and it degrades; a drop severs the connection the same way a
	// crash between msgEnd and the trailer would.
	if err := fc.injure(ctx, faults.OpTrace); err != nil {
		if errors.Is(err, faults.ErrInjected) {
			return nil
		}
		return err
	}
	var e Encoder
	e.Span(root.Data())
	return fc.writeFrame(ctx, msgTrace, e.Bytes())
}

// streamQuery rebinds and executes q, streaming row batches until EOF.
// Under a traced context it records the remote parse/exec/stream child
// spans; traced also sets the msgEnd trailer-follows flag. The bool
// reports whether the stream completed through msgEnd (and so owes a
// trailer when traced).
func (s *Server) streamQuery(ctx context.Context, fc *frameConn, q *source.Query, traced bool) (bool, error) {
	pctx, psp := obs.StartSpan(ctx, obs.SpanParse, "rebind")
	err := s.rebindQuery(pctx, q)
	psp.End()
	if err != nil {
		return false, sendErr(ctx, fc, err)
	}
	qid := s.Queries.Begin(q.String())
	xctx, xsp := obs.StartSpan(ctx, obs.SpanExec, q.Table)
	it, err := s.src.Execute(xctx, q)
	xsp.End()
	if err != nil {
		s.Queries.Finish(qid, err, obs.TraceFrom(ctx))
		return false, sendErr(ctx, fc, err)
	}
	defer it.Close()
	defer func() { s.Queries.Finish(qid, nil, obs.TraceFrom(ctx)) }()
	if err := fc.writeFrame(ctx, msgOK, nil); err != nil {
		return false, err
	}
	return s.streamRows(ctx, fc, it, traced)
}

// streamRows drains it into msgRows batches and terminates the stream
// with msgEnd (flagged when a trace trailer will follow). The bool
// reports whether msgEnd was written.
//
// When the connection negotiated a credit window, each msgRows frame
// spends one credit; at zero the server blocks reading msgCredit grants
// instead of buffering ahead, so a slow consumer stalls this stream
// rather than ballooning server memory. A context deadline (propagated
// or local) is reported to the client as a clean in-stream error: the
// connection survives, the stream does not.
func (s *Server) streamRows(ctx context.Context, fc *frameConn, it source.RowIter, traced bool) (bool, error) {
	_, ssp := obs.StartSpan(ctx, obs.SpanStream, "rows")
	defer ssp.End()
	var e Encoder
	batch, rows := 0, int64(0)
	credit := fc.window
	sendBatch := func(n int) error {
		if fc.window > 0 {
			if credit == 0 {
				if err := awaitCredit(ctx, fc, &credit); err != nil {
					return err
				}
			}
			credit--
		}
		hdr := prependCount(e.Bytes(), n)
		return fc.writeFrame(ctx, msgRows, hdr)
	}
	for {
		if err := ctx.Err(); err != nil {
			// The deadline (propagated or local) fired mid-stream. Tell
			// the client on a detached context: the notice is one bounded
			// frame and must not itself be suppressed by the expiry.
			//lint:ignore ctxflow the expiry notice must outlive the deadline that triggered it; single bounded frame
			return false, sendErr(context.WithoutCancel(ctx), fc, err)
		}
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if ctx.Err() != nil {
				//lint:ignore ctxflow the expiry notice must outlive the deadline that triggered it; single bounded frame
				return false, sendErr(context.WithoutCancel(ctx), fc, err)
			}
			return false, sendErr(ctx, fc, err)
		}
		if batch == 0 {
			e.Reset()
		}
		e.Row(row)
		batch++
		rows++
		if batch == rowBatchSize {
			// Mid-stream fault point: a transient injection aborts
			// just this stream, a drop severs the connection with
			// rows in flight.
			if err := fc.injure(ctx, faults.OpRead); err != nil {
				if errors.Is(err, faults.ErrInjected) {
					return false, sendErr(ctx, fc, err)
				}
				return false, err
			}
			if err := sendBatch(batch); err != nil {
				return false, err
			}
			batch = 0
		}
	}
	if batch > 0 {
		if err := sendBatch(batch); err != nil {
			return false, err
		}
	}
	ssp.SetInt("rows", rows)
	var end []byte
	if traced {
		end = []byte{1}
	}
	if err := fc.writeFrame(ctx, msgEnd, end); err != nil {
		return false, err
	}
	return true, nil
}

// awaitCredit blocks until the client grants more stream credit,
// accumulating grants into credit. The read is bounded by the stream
// context's deadline (set on the socket, so a blocked read observes
// it); a client that abandons the stream closes its connection, which
// surfaces here as a read error.
func awaitCredit(ctx context.Context, fc *frameConn, credit *int) error {
	rd, hasDeadline := fc.rw.(readDeadliner)
	if hasDeadline {
		if dl, ok := ctx.Deadline(); ok {
			_ = rd.SetReadDeadline(dl)
			defer func() { _ = rd.SetReadDeadline(time.Time{}) }()
		}
	}
	for *credit == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		tag, payload, err := fc.readFrame(ctx)
		if err != nil {
			return err
		}
		if tag != msgCredit {
			return fmt.Errorf("wire: expected credit grant mid-stream, got tag %d", tag)
		}
		n, err := NewDecoder(payload).Uvarint()
		if err != nil {
			return err
		}
		*credit += int(n)
	}
	return nil
}

// handleWrite decodes the shared (txid, table) prefix of write requests,
// resolves the writer (transactional or autocommit), runs op, and sends
// the affected-row count.
func (s *Server) handleWrite(ctx context.Context, fc *frameConn, st *connState, d *Decoder,
	op func(context.Context, source.Writer, string, *Decoder) (int64, error)) error {
	txid, err := d.String()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	table, err := d.String()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	var w source.Writer
	if txid != "" {
		tx, ok := st.txs[txid]
		if !ok {
			return sendErr(ctx, fc, fmt.Errorf("unknown transaction %q", txid))
		}
		w = tx
	} else {
		sw, ok := s.src.(source.Writer)
		if !ok {
			return sendErr(ctx, fc, fmt.Errorf("source %s is not writable", s.src.Name()))
		}
		w = sw
	}
	n, err := op(ctx, w, table, d)
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	var e Encoder
	e.Varint(n)
	return fc.writeFrame(ctx, msgOK, e.Bytes())
}

// rebindQuery re-binds the decoded filter against the target table's
// schema so function references and operator types are restored.
func (s *Server) rebindQuery(ctx context.Context, q *source.Query) error {
	if q.Filter == nil {
		return nil
	}
	info, err := s.src.TableInfo(ctx, q.Table)
	if err != nil {
		return err
	}
	q.Filter, err = rebindExpr(q.Filter, info.Schema)
	return err
}

// rebindExpr strips names from positional references (the sender's names
// may come from the global schema) and binds against schema.
func rebindExpr(e expr.Expr, schema *types.Schema) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	stripped := expr.Transform(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.ColRef); ok && c.Index >= 0 {
			return expr.NewBoundColRef(c.Index, c.Type, "")
		}
		return n
	})
	return expr.Bind(stripped, schema)
}

// prependCount prefixes a row-batch payload with its row count.
func prependCount(payload []byte, n int) []byte {
	var hdr Encoder
	hdr.Uvarint(uint64(n))
	return append(hdr.Bytes(), payload...)
}

// encodeStats serializes table statistics (histograms travel too).
func encodeStats(e *Encoder, ts *stats.TableStats) {
	e.Varint(ts.RowCount)
	e.Uvarint(uint64(len(ts.Columns)))
	for _, c := range ts.Columns {
		e.Varint(c.NDV)
		e.Varint(c.NullCount)
		e.Value(c.Min)
		e.Value(c.Max)
		if c.Hist == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		e.Varint(c.Hist.Total)
		e.Uvarint(uint64(len(c.Hist.Bounds)))
		for i := range c.Hist.Bounds {
			e.Value(c.Hist.Bounds[i])
			e.Varint(c.Hist.Counts[i])
		}
	}
}

// decodeStats is the inverse of encodeStats.
func decodeStats(d *Decoder) (*stats.TableStats, error) {
	ts := &stats.TableStats{}
	var err error
	if ts.RowCount, err = d.Varint(); err != nil {
		return nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, io.ErrUnexpectedEOF
	}
	ts.Columns = make([]stats.ColumnStats, n)
	for i := range ts.Columns {
		c := &ts.Columns[i]
		if c.NDV, err = d.Varint(); err != nil {
			return nil, err
		}
		if c.NullCount, err = d.Varint(); err != nil {
			return nil, err
		}
		if c.Min, err = d.Value(); err != nil {
			return nil, err
		}
		if c.Max, err = d.Value(); err != nil {
			return nil, err
		}
		hasHist, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if !hasHist {
			continue
		}
		h := &stats.Histogram{}
		if h.Total, err = d.Varint(); err != nil {
			return nil, err
		}
		nb, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if nb > uint64(d.Remaining()) {
			return nil, io.ErrUnexpectedEOF
		}
		h.Bounds = make([]types.Value, nb)
		h.Counts = make([]int64, nb)
		for j := range h.Bounds {
			if h.Bounds[j], err = d.Value(); err != nil {
				return nil, err
			}
			if h.Counts[j], err = d.Varint(); err != nil {
				return nil, err
			}
		}
		c.Hist = h
	}
	return ts, nil
}

// benignNetErr reports connection teardown noise (a client abandoning an
// undrained stream closes its socket; the server should not log that as
// an error).
func benignNetErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	return false
}
