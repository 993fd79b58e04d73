package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
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

// Server exposes one source.Source over TCP. The source's optional
// Writer and Transactional facets are served when implemented.
type Server struct {
	src source.Source
	ln  net.Listener

	mu sync.Mutex
	// conns maps every connection to whether it is inside a conversation
	// — serving a request, or holding an open transaction between two —
	// or between conversations (idle: a client's pooled socket), which is
	// what Shutdown closes without waiting.
	conns  map[net.Conn]*atomic.Bool
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
		src: src, ln: ln, conns: make(map[net.Conn]*atomic.Bool), Logf: log.Printf,
		Queries:       obs.NewQueryLog(250*time.Millisecond, 64),
		lm:            newLinkMetrics("server", src.Name()),
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
// not work), lets connections with an in-flight request or an open
// transaction finish — each closes as soon as it falls idle — until ctx
// expires, then force-closes the stragglers. Always waits for every
// handler to exit before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for c, busy := range s.conns {
		if !busy.Load() {
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

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(socketBuffer) // a kernel that refuses keeps its default: a larger bound, not a failure
		}
		busy := new(atomic.Bool)
		s.mu.Lock()
		if s.closed.Load() {
			// Lost the race with Shutdown/Close: do not serve.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = busy
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
			err := s.serveConn(ctx, conn, busy)
			if err != nil && !errors.Is(err, io.EOF) && !s.closed.Load() && !benignNetErr(err) {
				s.Logf("wire server %s: connection error: %v", s.src.Name(), err)
			}
		}()
	}
}

// connState is what a connection's requests share: the handshake's
// outcome (hello is set once the connection has been greeted) and the
// open transaction, if any. A connection carries one conversation, so
// there is at most one, and the writes and 2PC messages that arrive
// while it is open are its steps — nothing on the wire names it.
type connState struct {
	tx     source.Tx
	hello  bool
	tenant string
}

func (s *Server) serveConn(ctx context.Context, conn net.Conn, busy *atomic.Bool) error {
	fc := newFrameConn(conn, SimLink{}, SimLink{})
	fc.metrics = s.lm
	fc.inj = s.inj
	fc.limit = s.maxFrameBytes
	st := &connState{}
	defer func() {
		// A connection that closes with a transaction open is how a peer
		// that died, gave up or ran out of time says abort. The abort must
		// run even when the server's root context is already cancelled, so
		// it uses a context detached from ctx's cancellation.
		if st.tx != nil {
			_ = st.tx.Abort(context.WithoutCancel(ctx))
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
		busy.Store(true)
		err = s.handle(ctx, fc, st, tag, payload)
		busy.Store(st.tx != nil)
		if err != nil {
			return err
		}
		if st.tx == nil && s.closed.Load() {
			return nil // draining, and this conversation is over
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
	// The handshake bypasses the fault injector: it is connection
	// plumbing, not an operation, and when it happens depends on pool
	// reuse — routing it through the injector would make seeded fault
	// sequences non-reproducible.
	if tag == msgHello {
		return s.handleHello(ctx, fc, st, payload)
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
	switch {
	case tag == msgExecute:
		return s.handleExecute(ctx, fc, st, NewDecoder(payload))
	case tag == msgStats:
		return s.handleStats(ctx, fc, st, NewDecoder(payload))
	case tag == msgBeginTx && st.tx != nil:
		return reject(ctx, fc, errors.New("wire: begin with a transaction already open on this connection"))
	}
	var reply Encoder
	if err := s.answer(ctx, st, tag, fc.decoder(payload), &reply); err != nil {
		return sendErr(ctx, fc, err)
	}
	return fc.writeFrame(ctx, msgOK, reply.Bytes())
}

// answer serves a request that has one answer: it returns the error to
// report, or fills in the msgOK payload.
func (s *Server) answer(ctx context.Context, st *connState, tag byte, d *Decoder, reply *Encoder) error {
	switch tag {
	case msgTables:
		names, err := s.src.Tables(ctx)
		if err != nil {
			return err
		}
		reply.Uvarint(uint64(len(names)))
		for _, n := range names {
			reply.String(n)
		}

	case msgTableInfo:
		table, err := d.String()
		if err != nil {
			return err
		}
		info, err := s.src.TableInfo(ctx, table)
		if err != nil {
			return err
		}
		reply.tableInfo(info)

	case msgBeginTx:
		t, ok := s.src.(source.Transactional)
		if !ok {
			return fmt.Errorf("source %s is not transactional", s.src.Name())
		}
		tx, err := t.BeginTx(ctx)
		if err != nil {
			return err
		}
		st.tx = tx

	case msgInsert, msgUpdate, msgDelete:
		w, err := d.writeReq(tag)
		if err != nil {
			return err
		}
		n, err := s.write(ctx, st, tag, &w)
		if err != nil {
			return err
		}
		reply.Varint(n)

	case msgPrepare, msgCommit, msgAbort:
		tx := st.tx
		switch {
		case tx == nil:
			return errors.New("wire: no transaction is open on this connection")
		case tag == msgPrepare:
			return tx.Prepare(ctx)
		case tag == msgAbort:
			st.tx = nil
			return tx.Abort(ctx)
		}
		// A refused commit stays open: the coordinator retries it.
		if err := tx.Commit(ctx); err != nil {
			return err
		}
		st.tx = nil

	default:
		return fmt.Errorf("wire: unknown message tag %d", tag)
	}
	return nil
}

// handleHello answers the per-connection handshake: check the protocol
// version, record the tenant, exchange frame-size bounds (each side
// lowers its outbound bound to the peer's inbound one), tell the client
// what the served source can be asked and, when the hello asks, what
// tables it serves.
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
	if h.MaxRead > 0 && h.MaxRead < fc.wlimit {
		fc.wlimit = h.MaxRead
	}
	rep := helloReply{MaxRead: s.maxFrameBytes, Caps: s.src.Capabilities()}
	if h.Describe {
		rep.Tables = s.describe(ctx, &rep, fc.wlimit)
	}
	var e Encoder
	e.helloReply(&rep)
	return fc.writeFrame(ctx, msgOK, e.Bytes())
}

// describe is the export schema a hello reply of at most limit bytes
// carries: each served table's description, in the order Tables lists
// them, until the next would take the reply past limit. A table the
// source cannot describe is left out, and so is every table when it
// cannot list them, or once the server is closing; the client asks for
// what is missing over the wire.
func (s *Server) describe(ctx context.Context, rep *helloReply, limit int) []describedTable {
	names, err := s.src.Tables(ctx)
	if err != nil {
		return nil
	}
	var e Encoder
	e.helloHead(rep)
	head, body := len(e.Bytes()), 0
	var count [binary.MaxVarintLen64]byte
	var out []describedTable
	for _, name := range names {
		if ctx.Err() != nil {
			break
		}
		info, err := s.src.TableInfo(ctx, name)
		if err != nil {
			continue
		}
		t := describedTable{Name: name, Info: info}
		e.Reset()
		e.describedTable(t)
		if head+binary.PutUvarint(count[:], uint64(len(out)+1))+body+len(e.Bytes()) > limit {
			break
		}
		body += len(e.Bytes())
		out = append(out, t)
	}
	return out
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

// handleExecute serves one msgExecute request: decode the header and the
// query; enforce the header's budget as a context deadline; pass
// admission control; run the fragment — under a server-local trace when
// the header names the mediator's — and stream the rows. The finished
// span subtree goes back in the stream's last frame (footer).
func (s *Server) handleExecute(ctx context.Context, fc *frameConn, st *connState, d *Decoder) error {
	h, err := d.execHeader()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	q, err := d.Query()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	if h.Budget > 0 {
		// The propagated deadline caps this fragment: when it fires, the
		// source's Execute/Next observe ctx cancellation and the stream
		// reports the expiry instead of pinning the connection.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.Budget)
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
	var root *obs.Span
	if h.TraceID != "" {
		ctx = obs.WithTrace(ctx, obs.NewTraceWithID(h.TraceID, q.String()))
		ctx, root = obs.StartSpan(ctx, obs.SpanRemote, s.src.Name())
		defer root.End() // a stream that fails sends no footer to end it for
		root.SetAttr("trace_id", h.TraceID)
		root.SetInt("parent_span", int64(h.ParentSpan))
	}
	return s.streamQuery(ctx, fc, q, root)
}

// handleStats serves one msgStats request: the statistics of the table
// it names, collected here by the helper a mediator's ANALYZE uses
// (source.CollectStats), so a source without statistics of its own is
// scanned where it lives and not across the link. The collection runs
// under admission control, as a sub-query does.
func (s *Server) handleStats(ctx context.Context, fc *frameConn, st *connState, d *Decoder) error {
	table, err := d.String()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	if s.admit != nil {
		actx, sess, err := s.admit.Admit(ctx, st.tenant)
		if err != nil {
			return sendShed(ctx, fc, err)
		}
		defer sess.Release()
		ctx = actx
	}
	info, err := s.src.TableInfo(ctx, table)
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	ts, err := source.CollectStats(ctx, s.src, table, info.Schema.Len())
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	var reply Encoder
	encodeStats(&reply, ts)
	return fc.writeFrame(ctx, msgOK, reply.Bytes())
}

// streamQuery binds and executes q, streaming row batches until EOF.
// Under a traced context it records the remote parse/exec/stream child
// spans of root, the sub-query's remote span (nil when untraced).
func (s *Server) streamQuery(ctx context.Context, fc *frameConn, q *source.Query, root *obs.Span) error {
	pctx, psp := obs.StartSpan(ctx, obs.SpanParse, "rebind")
	err := s.bindQuery(pctx, q)
	psp.End()
	if err != nil {
		return sendErr(ctx, fc, err)
	}
	qid := s.Queries.BeginLazy(q)
	xctx, xsp := obs.StartSpan(ctx, obs.SpanExec, q.Table)
	it, err := s.src.Execute(xctx, q)
	xsp.End()
	if err != nil {
		s.Queries.Finish(qid, err, obs.TraceFrom(ctx))
		return sendErr(ctx, fc, err)
	}
	defer it.Close()
	defer func() { s.Queries.Finish(qid, nil, obs.TraceFrom(ctx)) }()
	if err := fc.writeFrame(ctx, msgOK, nil); err != nil {
		return err
	}
	return s.streamRows(ctx, fc, it, root)
}

// streamRows drains it into msgRows batches and terminates the stream
// with msgEnd, whose payload is the finished subtree of root, the
// sub-query's remote span (see footer; nil and empty when untraced).
//
// A consumer that stops reading stalls the stream in its next frame
// write once the socket buffers are full (socketBuffer), and that write
// observes the stream context's deadline (frameConn.arm). A deadline
// that fires between frames is reported to the client as a clean
// in-stream error: the connection survives, the stream does not.
//
// A frame is cut at rowBatchSize rows, or before the row that would push
// its payload past the peer's frame bound (fc.wlimit), which then starts
// the next frame; a single row wider than the bound fails the stream with
// msgErr. A row is encoded before the next is asked for, so the source is
// asked to lend its rows: re-encoding the row that did not fit reads it
// before the next Next.
func (s *Server) streamRows(ctx context.Context, fc *frameConn, it source.RowIter, root *obs.Span) error {
	_, ssp := obs.StartSpan(ctx, obs.SpanStream, "rows")
	defer ssp.End()
	source.Lend(it)
	var e Encoder
	batch, rows := 0, int64(0)
	// cut sends a frame mid-stream. Mid-stream fault point: a transient
	// injection aborts just this stream, a drop severs the connection
	// with rows in flight.
	cut := func(n int) error {
		if err := fc.injure(ctx, faults.OpRead); err != nil {
			if errors.Is(err, faults.ErrInjected) {
				return sendErr(ctx, fc, err)
			}
			return err
		}
		return fc.writeFrame(ctx, msgRows, e.endRows(0, n))
	}
	for {
		if err := ctx.Err(); err != nil {
			// The deadline (propagated or local) fired mid-stream. Tell
			// the client on a detached context: the notice is one bounded
			// frame and must not itself be suppressed by the expiry.
			//lint:ignore ctxflow the expiry notice must outlive the deadline that triggered it; single bounded frame
			return sendErr(context.WithoutCancel(ctx), fc, err)
		}
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if ctx.Err() != nil {
				//lint:ignore ctxflow the expiry notice must outlive the deadline that triggered it; single bounded frame
				return sendErr(context.WithoutCancel(ctx), fc, err)
			}
			return sendErr(ctx, fc, err)
		}
		if batch == 0 {
			if rows == 0 {
				e = newMessage() // at the first row: an empty stream encodes nothing
			}
			e.Reset()
			e.beginRows()
		}
		at := len(e.buf)
		e.Row(row)
		if batch > 0 && e.rowsLen(batch+1) > fc.wlimit {
			// The row would push the frame past the peer's bound: send
			// the frame without it, and start the next one with it.
			e.buf = e.buf[:at]
			if err := cut(batch); err != nil {
				return err
			}
			batch = 0
			e.Reset()
			e.beginRows()
			at = len(e.buf)
			e.Row(row)
		}
		if batch == 0 && e.rowsLen(1) > fc.wlimit {
			return sendErr(ctx, fc, fmt.Errorf("wire: a row of %d bytes does not fit the peer's %d-byte frame bound: %w", len(e.buf)-at, fc.wlimit, ErrFrameTooLarge))
		}
		batch++
		rows++
		if batch == rowBatchSize {
			if err := cut(batch); err != nil {
				return err
			}
			batch = 0
		}
	}
	if batch > 0 {
		if err := fc.writeFrame(ctx, msgRows, e.endRows(0, batch)); err != nil {
			return err
		}
	}
	ssp.SetInt("rows", rows)
	ssp.End()
	root.End()
	return fc.writeFrame(ctx, msgEnd, footer(root.Data(), fc.wlimit))
}

// write applies a decoded write request through the transaction open on
// this connection, else through the source's autocommit facet, and
// returns the affected-row count. The decoder has no schema, so a SET
// list is checked against the table first (TableInfo.CheckWrite; a store
// checks an INSERT's rows itself) and shipped expressions are re-bound
// against its schema (expr.BindPositions).
func (s *Server) write(ctx context.Context, st *connState, tag byte, req *writeReq) (int64, error) {
	var w source.Writer = st.tx
	if st.tx == nil {
		sw, ok := s.src.(source.Writer)
		if !ok {
			return 0, fmt.Errorf("source %s is not writable", s.src.Name())
		}
		w = sw
	}
	if tag == msgInsert {
		return w.Insert(ctx, req.Table, req.Rows)
	}
	info, err := s.src.TableInfo(ctx, req.Table)
	if err != nil {
		return 0, err
	}
	if req.Filter, err = expr.BindPositions(req.Filter, info.Schema); err != nil {
		return 0, err
	}
	if tag == msgDelete {
		return w.Delete(ctx, req.Table, req.Filter)
	}
	if err := info.CheckWrite(req.Table, req.Set, nil); err != nil {
		return 0, err
	}
	for i := range req.Set {
		if req.Set[i].Value, err = expr.BindPositions(req.Set[i].Value, info.Schema); err != nil {
			return 0, err
		}
	}
	return w.Update(ctx, req.Table, req.Filter, req.Set)
}

// bindQuery makes a decoded sub-query safe to hand to the source: the
// decoder has no schema, so the positions and the shape of q are checked
// here, against the table it names and what the source can be asked
// (source.Query.Check), and the filter is re-bound against the table's
// schema, which restores function references and operator types and
// refuses a reference out of range.
func (s *Server) bindQuery(ctx context.Context, q *source.Query) error {
	info, err := s.src.TableInfo(ctx, q.Table)
	if err != nil {
		return err
	}
	if err := q.Check(s.src.Capabilities(), info); err != nil {
		return err
	}
	q.Filter, err = expr.BindPositions(q.Filter, info.Schema)
	return err
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
	n, err := d.count()
	if err != nil {
		return nil, err
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
		nb, err := d.count()
		if err != nil {
			return nil, err
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
