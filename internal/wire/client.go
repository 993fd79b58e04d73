package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// DefaultDialTimeout bounds the TCP connect when the dialing context
// carries no tighter deadline. A federation mediator must never block
// unboundedly on a dead component system's SYN.
const DefaultDialTimeout = 5 * time.Second

// Client is a remote source: it implements source.Source, source.Writer,
// and source.Transactional over the wire protocol. A client keeps a pool
// of TCP connections and one rule: a connection is borrowed, carries one
// conversation — a request and its answer, a result stream, or a whole
// transaction from begin to commit or abort — and goes back, or is
// closed when a transport error leaves its protocol state unknown. So
// parallel sub-queries do not block each other, and neither do two
// transactions, or a transaction and a metadata call.
type Client struct {
	addr string
	name string
	up   SimLink // client → server
	down SimLink // server → client

	connectTimeout time.Duration
	plan           *faults.Plan
	// inj is this link's fault injector, shared by every connection so
	// the plan's decision sequence is per-link, not per-conn.
	inj *faults.Injector

	// tenant rides the per-connection hello handshake so the component
	// system can enforce its own per-tenant quotas on sub-queries.
	tenant string
	// maxFrameBytes bounds inbound frames on every connection.
	maxFrameBytes int
	// rtt holds the link's EWMA round-trip nanoseconds, observed on
	// request/response calls; Execute subtracts half of it from
	// propagated deadlines (the one-way WAN share).
	rtt atomic.Int64

	// baseCtx stands in for the context Stats has no parameter for: the
	// dialing context's values without its cancellation.
	baseCtx context.Context
	// caps is the served source's capability vector, learned from the
	// hello reply of the connection DialContext opened.
	caps source.Capabilities

	mu     sync.Mutex
	pool   []*frameConn
	closed bool
	// described holds the table descriptions DialContext's hello reply
	// carried that no TableInfo has taken and no write has made stale
	// (see hello.go, Describe).
	described map[string]*source.TableInfo

	// lm counts this link's frames/bytes/round trips under
	// wire.client.<name>.*; set once in DialContext after options resolve.
	lm *linkMetrics
}

// Option configures a client.
type Option func(*Client)

// WithSimLink simulates WAN latency/bandwidth. The same link parameters
// are applied in both directions (uplink on sends, downlink on receives).
func WithSimLink(l SimLink) Option {
	return func(c *Client) { c.up, c.down = l, l }
}

// WithName overrides the source name reported by the client (defaults to
// the remote address).
func WithName(name string) Option {
	return func(c *Client) { c.name = name }
}

// WithFaultPlan injects the plan's faults for this client's link (keyed
// by the client name, falling back to the plan's "*" entry).
func WithFaultPlan(p *faults.Plan) Option {
	return func(c *Client) { c.plan = p }
}

// WithConnectTimeout overrides DefaultDialTimeout for TCP connects.
func WithConnectTimeout(d time.Duration) Option {
	return func(c *Client) { c.connectTimeout = d }
}

// WithTenant sets the tenant announced in the connection handshake, so
// the component system can attribute and quota this link's sub-queries.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// WithMaxFrameBytes bounds inbound frames on this link's connections;
// larger frames are rejected with ErrFrameTooLarge before allocation.
func WithMaxFrameBytes(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxFrameBytes = n
		}
	}
}

// DialContext connects to a wire server, bounding the connect by ctx
// and by the connect timeout (DefaultDialTimeout unless overridden). The
// connection it opens proves the address and the protocol version,
// brings the source's capabilities and the descriptions of its tables,
// seeds the link's round-trip estimate, and is the pool's first.
func DialContext(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:           addr,
		name:           addr,
		connectTimeout: DefaultDialTimeout,
		maxFrameBytes:  maxFrame,
	}
	for _, o := range opts {
		o(c)
	}
	c.lm = newLinkMetrics("client", c.name)
	c.inj = c.plan.Link(c.name)
	c.baseCtx = context.WithoutCancel(ctx)
	fc, rep, err := c.dial(ctx, true)
	if err != nil {
		return nil, err
	}
	c.caps = rep.Caps
	if len(rep.Tables) > 0 {
		c.described = make(map[string]*source.TableInfo, len(rep.Tables))
		for _, t := range rep.Tables {
			c.described[t.Name] = t.Info
		}
	}
	c.pool = append(c.pool, fc)
	return c, nil
}

// dial opens a connection and greets the server on it, asking for the
// served tables' descriptions when describe is set.
func (c *Client) dial(ctx context.Context, describe bool) (*frameConn, *helloReply, error) {
	if err := c.inj.Inject(ctx, faults.OpConnect); err != nil {
		return nil, nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	nd := net.Dialer{Timeout: c.connectTimeout}
	conn, err := nd.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: dial %s: %w", c.addr, ioErr(ctx, err))
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(socketBuffer) // a kernel that refuses keeps its default: a larger bound, not a failure
	}
	fc := newFrameConn(conn, c.up, c.down)
	fc.metrics = c.lm
	fc.inj = c.inj
	fc.limit = c.maxFrameBytes
	fc.rttEWMA = &c.rtt
	rep, err := c.handshake(ctx, fc, describe)
	if err != nil {
		c.discard(fc)
		return nil, nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	return fc, rep, nil
}

// handshake sends msgHello on a fresh connection, applies the peer's
// frame bound and returns its reply. The exchange bypasses the fault
// injector deliberately: it is connection setup, not an operation in
// the seeded fault sequence, so enabling it does not perturb fault-plan
// decision streams. It is timed like any round trip, so the link's RTT
// estimate has a sample before the first query ships a deadline.
// Anything but a well-formed msgOK (a server rejecting the announced
// version, a reply cut short) fails the dial.
func (c *Client) handshake(ctx context.Context, fc *frameConn, describe bool) (*helloReply, error) {
	var e Encoder
	e.hello(&hello{Version: helloVersion, Tenant: c.tenant, MaxRead: c.maxFrameBytes, Describe: describe})
	tag, resp, err := fc.exchange(ctx, msgHello, e.Bytes())
	if err != nil {
		return nil, err
	}
	if resp, err = checkResp(tag, resp); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	rep, err := NewDecoder(resp).helloReply()
	if err != nil {
		return nil, fmt.Errorf("handshake: malformed hello reply: %w", err)
	}
	if rep.MaxRead > 0 && rep.MaxRead < fc.wlimit {
		fc.wlimit = rep.MaxRead
	}
	return rep, nil
}

// getConn borrows a pooled connection, or dials one when the pool is
// empty; a closed client lends nothing.
func (c *Client) getConn(ctx context.Context) (*frameConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, net.ErrClosed
	}
	if n := len(c.pool); n > 0 {
		fc := c.pool[n-1]
		c.pool = c.pool[:n-1]
		c.mu.Unlock()
		return fc, nil
	}
	c.mu.Unlock()
	fc, _, err := c.dial(ctx, false)
	return fc, err
}

// putConn ends a conversation whose connection is still in protocol
// sync (nil: the connection did not survive it).
func (c *Client) putConn(fc *frameConn) {
	if fc == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.discard(fc)
		return
	}
	c.pool = append(c.pool, fc)
	c.mu.Unlock()
}

// Close shuts every pooled connection down; one that a stream or a
// transaction still owns is closed when that conversation hands it back.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var first error
	for _, fc := range c.pool {
		if err := fc.rw.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.pool = nil
	return first
}

// Name implements source.Source.
func (c *Client) Name() string { return c.name }

// roundTrip performs one request/response of a conversation. A nil fc
// starts the conversation: a connection is borrowed. When the peer
// answered — msgOK, or a msgErr, which leaves the protocol state as
// clean — the connection comes back with the answer, the caller's to
// keep for the next step or to put back; after a transport error, or an
// answer that is neither, its state is unknown (what else the peer has
// queued on it would be read as the next request's answer), so it has
// been closed and nil comes back.
func (c *Client) roundTrip(ctx context.Context, fc *frameConn, tag byte, payload []byte) (*frameConn, []byte, error) {
	if err := ctx.Err(); err != nil {
		return fc, nil, err
	}
	if fc == nil {
		var err error
		if fc, err = c.getConn(ctx); err != nil {
			return nil, nil, err
		}
	}
	respTag, resp, err := fc.call(ctx, tag, payload)
	if err != nil {
		c.discard(fc)
		// A peer that hangs up instead of answering leaves no answer: a
		// bare io.EOF would read as an empty result to a caller that
		// treats it as a stream's end.
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("wire: connection closed before the answer: %w", io.ErrUnexpectedEOF)
		}
		return nil, nil, err
	}
	if respTag != msgOK && respTag != msgErr {
		c.discard(fc)
		fc = nil
	}
	resp, err = checkResp(respTag, resp)
	return fc, resp, err
}

// call is the conversation of one request and its answer.
func (c *Client) call(ctx context.Context, tag byte, payload []byte) ([]byte, error) {
	fc, resp, err := c.roundTrip(ctx, nil, tag, payload)
	c.putConn(fc)
	return resp, err
}

func checkResp(tag byte, payload []byte) ([]byte, error) {
	switch tag {
	case msgOK:
		return payload, nil
	case msgErr:
		msg, err := NewDecoder(payload).String()
		if err != nil {
			return nil, fmt.Errorf("wire: malformed error response")
		}
		// Overload sheds travel as a marked error string so the typed
		// OverloadError (reason, retryable hint) survives the wire.
		if oe, ok := admission.ParseWireError(msg); ok {
			return nil, oe
		}
		return nil, errors.New(msg)
	default:
		return nil, fmt.Errorf("wire: unexpected response tag %d", tag)
	}
}

// Tables implements source.Source.
func (c *Client) Tables(ctx context.Context) ([]string, error) {
	resp, err := c.call(ctx, msgTables, nil)
	if err != nil {
		return nil, err
	}
	d := NewDecoder(resp)
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.String(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TableInfo implements source.Source. The first ask for a table the
// dial's hello reply described is answered from that reply, which is
// then forgotten; every other ask is a round trip. So an answer is at
// most as old as the dial, and only the first time.
func (c *Client) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	c.mu.Lock()
	info, ok := c.described[table]
	delete(c.described, table)
	c.mu.Unlock()
	if ok {
		return info, nil
	}
	var e Encoder
	e.String(table)
	resp, err := c.call(ctx, msgTableInfo, e.Bytes())
	if err != nil {
		return nil, err
	}
	return NewDecoder(resp).tableInfo()
}

// Capabilities implements source.Source: the vector the served source
// announced in the handshake.
func (c *Client) Capabilities() source.Capabilities { return c.caps }

// Stats implements source.StatsProvider: the statistics of the remote
// table, collected where it lives — the served source's own, or a scan
// there (Server.handleStats).
func (c *Client) Stats(table string) (*stats.TableStats, error) {
	var e Encoder
	e.String(table)
	resp, err := c.call(c.baseCtx, msgStats, e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeStats(NewDecoder(resp))
}

// Execute implements source.Source, streaming result batches over a
// connection the stream owns until it ends.
func (c *Client) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	// Ship the remaining deadline budget, shrunk by the link's one-way
	// latency estimate, so the remote fragment's deadline expires no
	// later than ours. A budget the WAN latency has already consumed
	// fails fast instead of paying for a round trip that cannot finish.
	budget, ok := executeBudget(ctx, c.rtt.Load())
	if !ok {
		return nil, context.DeadlineExceeded
	}
	h := execHeader{Budget: budget}
	// A traced sub-query names its trace: the server runs the fragment
	// under a trace of its own and returns the finished subtree in the
	// stream's footer, which goes under parent.
	parent := obs.CurrentSpan(ctx)
	if tr := obs.TraceFrom(ctx); tr != nil {
		h.TraceID, h.ParentSpan = tr.ID(), parent.ID()
	}
	e := newMessage()
	e.execHeader(h)
	if err := e.Query(q); err != nil {
		return nil, err
	}
	fc, _, err := c.roundTrip(ctx, nil, msgExecute, e.Bytes())
	if err != nil {
		c.putConn(fc) // refused, not broken
		return nil, err
	}
	return &streamIter{ctx: ctx, c: c, fc: fc, parent: parent}, nil
}

func (c *Client) discard(fc *frameConn) {
	_ = fc.rw.Close() // the conn is being thrown away; nothing to report
}

// streamIter reads msgRows batches until msgEnd, whose footer — when
// this stream carried a trace — is the remote subtree it stitches under
// the parent span.
type streamIter struct {
	ctx   context.Context
	c     *Client
	fc    *frameConn
	batch []types.Row
	pos   int
	done  bool
	// lent: the consumer is done with a frame's rows before the next
	// frame is read, so each frame is decoded over slab, the storage of
	// the one before. Otherwise every frame gets a slab of its own.
	lent bool
	slab []types.Value
	err  error

	// parent is the span a traced stream's remote subtree goes under.
	parent *obs.Span
}

// Lend implements source.Lender.
func (it *streamIter) Lend() { it.lent = true }

// Next implements source.RowIter.
func (it *streamIter) Next() (types.Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	for it.pos == len(it.batch) {
		if it.done {
			return nil, io.EOF
		}
		if err := it.readFrame(); err != nil {
			it.fail(err)
			return nil, err
		}
	}
	r := it.batch[it.pos]
	it.pos++
	return r, nil
}

// readFrame reads the stream's next frame: a batch of rows, or the end
// of the stream, which sets done. A frame of no rows is a protocol error:
// a peer could otherwise keep the reader busy forever delivering
// nothing.
func (it *streamIter) readFrame() error {
	if err := it.ctx.Err(); err != nil {
		return err
	}
	// Mid-stream fault point: injected drops sever the stream here,
	// modelling a source dying while rows are in flight.
	if err := it.fc.injure(it.ctx, faults.OpRead); err != nil {
		return err
	}
	tag, payload, err := it.fc.readFrame(it.ctx)
	if err != nil {
		// Only msgEnd terminates a stream. A transport EOF here means
		// the connection died with rows in flight; surfacing it as a
		// plain io.EOF would let Drain mistake truncation for a clean
		// end of stream.
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("wire: result stream severed mid-flight: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	switch tag {
	case msgEnd:
		it.done = true
		// A footer that does not decode costs the remote half of the
		// trace and nothing else: the frame was read whole, so the stream
		// has ended and the connection is in protocol sync either way.
		if it.parent != nil && len(payload) > 0 {
			if data, err := NewDecoder(payload).Span(); err == nil {
				it.parent.AttachData(data)
				// The remote-compute share of the ship span; whatever else
				// the span took is the WAN share.
				it.parent.SetRemoteUS(data.DurationUS)
			}
		}
		it.c.putConn(it.fc)
		it.fc = nil
		return nil
	case msgErr:
		_, err := checkResp(tag, payload)
		return err
	case msgRows:
		// The slot array is reused: the previous batch is fully consumed
		// (pos == len) before a new msgRows frame is read, and handed-out
		// rows live in their frame's slab, not in the slots.
		var slab []types.Value
		if it.batch, slab, err = it.fc.decoder(payload).rowBatch(it.batch, it.slab); err != nil {
			return err
		}
		if len(it.batch) == 0 {
			return errors.New("wire: empty rows frame")
		}
		if it.lent {
			it.slab = slab
		}
		it.pos = 0
		return nil
	default:
		return fmt.Errorf("wire: unexpected stream tag %d", tag)
	}
}

func (it *streamIter) fail(err error) {
	it.err = err
	if it.fc != nil {
		it.c.discard(it.fc)
		it.fc = nil
	}
}

// Close implements source.RowIter. Closing an undrained stream discards
// the connection (the protocol has no cancel message).
func (it *streamIter) Close() error {
	if it.fc != nil && !it.done {
		it.c.discard(it.fc)
		it.fc = nil
		it.done = true
	}
	return nil
}

// ---- writes ----

// write sends one write request — down tx's connection when it is a
// step of that transaction, else as a conversation of its own, which is
// all that tells the server an autocommit write from a transactional
// one — and reads the affected-row count that answers it. A table this
// client writes is no longer answered from the dial's description, so
// TableInfo after a write sees it.
func (c *Client) write(ctx context.Context, tx *remoteTx, tag byte, req writeReq) (int64, error) {
	c.mu.Lock()
	delete(c.described, req.Table)
	c.mu.Unlock()
	e := newMessage()
	if err := e.writeReq(tag, &req); err != nil {
		return 0, err
	}
	var resp []byte
	var err error
	if tx != nil {
		resp, err = tx.step(ctx, tag, e.Bytes())
	} else {
		resp, err = c.call(ctx, tag, e.Bytes())
	}
	if err != nil {
		return 0, err
	}
	return NewDecoder(resp).Varint()
}

// Insert implements source.Writer (autocommit).
func (c *Client) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return c.write(ctx, nil, msgInsert, writeReq{Table: table, Rows: rows})
}

// Update implements source.Writer (autocommit).
func (c *Client) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return c.write(ctx, nil, msgUpdate, writeReq{Table: table, Filter: filter, Set: set})
}

// Delete implements source.Writer (autocommit).
func (c *Client) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return c.write(ctx, nil, msgDelete, writeReq{Table: table, Filter: filter})
}

// ---- transactions ----

// BeginTx implements source.Transactional.
func (c *Client) BeginTx(ctx context.Context) (source.Tx, error) {
	fc, _, err := c.roundTrip(ctx, nil, msgBeginTx, nil)
	if err != nil {
		c.putConn(fc) // refused, not broken
		return nil, err
	}
	return &remoteTx{c: c, fc: fc}, nil
}

// remoteTx is a transaction conversation. It owns the connection its
// msgBeginTx ran on — the server keeps the open transaction in that
// connection's state, so the connection is the transaction's name —
// until Commit is acknowledged or Abort returns. Closing the connection
// is an abort: the server rolls back what a peer leaves open.
type remoteTx struct {
	c *Client
	// fc is nil once the transaction is over or its connection is lost.
	fc *frameConn
}

var errTxOver = errors.New("wire: transaction is over or its connection was lost")

// step runs one request of the transaction. After a transport error the
// connection is gone and the participant has rolled back, so every
// later step fails here instead of reaching a server that no longer
// knows the transaction.
func (t *remoteTx) step(ctx context.Context, tag byte, payload []byte) ([]byte, error) {
	if t.fc == nil {
		return nil, errTxOver
	}
	var resp []byte
	var err error
	t.fc, resp, err = t.c.roundTrip(ctx, t.fc, tag, payload)
	return resp, err
}

// Insert implements source.Writer within the transaction.
func (t *remoteTx) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return t.c.write(ctx, t, msgInsert, writeReq{Table: table, Rows: rows})
}

// Update implements source.Writer within the transaction.
func (t *remoteTx) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return t.c.write(ctx, t, msgUpdate, writeReq{Table: table, Filter: filter, Set: set})
}

// Delete implements source.Writer within the transaction.
func (t *remoteTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return t.c.write(ctx, t, msgDelete, writeReq{Table: table, Filter: filter})
}

// Prepare implements source.Tx.
func (t *remoteTx) Prepare(ctx context.Context) error {
	_, err := t.step(ctx, msgPrepare, nil)
	return err
}

// Commit implements source.Tx. An acknowledged commit ends the
// conversation; a refused or unsent one keeps the connection, so the
// coordinator's retry reaches the same transaction.
func (t *remoteTx) Commit(ctx context.Context) error {
	_, err := t.step(ctx, msgCommit, nil)
	if err == nil {
		t.c.putConn(t.fc)
		t.fc = nil
	}
	return err
}

// Abort implements source.Tx. An abort the server acknowledged ends the
// conversation; one that could not be sent or was not acknowledged —
// the context is already done, the transport failed — is delivered by
// closing the connection, which needs neither a live context nor an
// answer, so a coordinator that ran out of time still releases the
// participant's locks.
func (t *remoteTx) Abort(ctx context.Context) error {
	if t.fc == nil {
		return nil // over, or rolled back when its connection closed
	}
	_, err := t.step(ctx, msgAbort, nil)
	if fc := t.fc; fc != nil {
		t.fc = nil
		if err == nil {
			t.c.putConn(fc)
		} else {
			t.c.discard(fc)
		}
	}
	return err
}
