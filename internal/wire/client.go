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
// and source.Transactional over the wire protocol. A client multiplexes
// work over a small pool of TCP connections; every Execute gets its own
// connection so result streams from parallel sub-queries do not block
// each other.
type Client struct {
	addr string
	name string
	up   SimLink // client → server
	down SimLink // server → client

	connectTimeout time.Duration
	trailerTimeout time.Duration
	plan           *faults.Plan
	// inj is this link's fault injector, shared by every connection so
	// the plan's decision sequence is per-link, not per-conn.
	inj *faults.Injector

	// tenant rides the per-connection hello handshake so the component
	// system can enforce its own per-tenant quotas on sub-queries.
	tenant string
	// creditWindow is the flow-control window this client requests
	// (msgRows frames in flight before a grant is required); 0
	// disables flow control.
	creditWindow int
	// maxFrameBytes bounds inbound frames on every connection.
	maxFrameBytes int
	// rtt holds the link's EWMA round-trip nanoseconds, observed on
	// request/response calls; Execute subtracts half of it from
	// propagated deadlines (the one-way WAN share).
	rtt atomic.Int64

	// baseCtx detaches long-lived background calls (the one-shot
	// capability fetch) from the dialing context's cancellation.
	baseCtx context.Context

	mu     sync.Mutex
	pool   []*frameConn
	closed bool
	// ctrl is the dedicated connection for metadata and transactions;
	// ctrlSem serializes its use (and keeps waiting cancellable, which
	// a mutex would not).
	ctrl    *frameConn
	ctrlSem chan struct{}

	capsOnce sync.Once
	caps     source.Capabilities
	capsErr  error

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

// WithTraceTrailerTimeout overrides how long Execute result streams
// wait for the trace trailer after the final msgEnd (default 2s). Tests
// use a short timeout to exercise the degraded path quickly.
func WithTraceTrailerTimeout(d time.Duration) Option {
	return func(c *Client) { c.trailerTimeout = d }
}

// WithTenant sets the tenant announced in the connection handshake, so
// the component system can attribute and quota this link's sub-queries.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// WithCreditWindow overrides the requested flow-control window
// (msgRows frames in flight before the server needs a credit grant).
// 0 disables flow control for this link; the effective window is
// negotiated down to the server's limit in the handshake.
func WithCreditWindow(frames int) Option {
	return func(c *Client) { c.creditWindow = frames }
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
// and by the connect timeout (DefaultDialTimeout unless overridden).
func DialContext(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:           addr,
		name:           addr,
		connectTimeout: DefaultDialTimeout,
		trailerTimeout: defaultTrailerTimeout,
		creditWindow:   defaultCreditWindow,
		maxFrameBytes:  maxFrame,
		ctrlSem:        make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(c)
	}
	c.lm = newLinkMetrics("client", c.name)
	c.inj = c.plan.Link(c.name)
	c.baseCtx = context.WithoutCancel(ctx)
	ctrl, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.ctrl = ctrl
	return c, nil
}

func (c *Client) dial(ctx context.Context) (*frameConn, error) {
	if err := c.inj.Inject(ctx, faults.OpConnect); err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	nd := net.Dialer{Timeout: c.connectTimeout}
	conn, err := nd.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	fc := newFrameConn(conn, c.up, c.down)
	fc.metrics = c.lm
	fc.inj = c.inj
	fc.limit = c.maxFrameBytes
	fc.rttEWMA = &c.rtt
	if err := c.handshake(ctx, fc); err != nil {
		c.discard(fc)
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	return fc, nil
}

// handshake sends msgHello on a fresh connection and applies the
// negotiated credit window and frame bounds. The exchange bypasses the
// fault injector deliberately: it is connection setup, not an operation
// in the seeded fault sequence, so enabling it does not perturb
// fault-plan decision streams. Anything but msgOK (a server rejecting
// the announced version) fails the dial.
func (c *Client) handshake(ctx context.Context, fc *frameConn) error {
	var e Encoder
	e.hello(&hello{Version: helloVersion, Tenant: c.tenant, Window: c.creditWindow, MaxRead: c.maxFrameBytes})
	if err := fc.writeFrame(ctx, msgHello, e.Bytes()); err != nil {
		return err
	}
	tag, resp, err := fc.readFrame(ctx)
	if err != nil {
		return err
	}
	if resp, err = checkResp(tag, resp); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	rep, err := NewDecoder(resp).helloReply()
	if err != nil {
		return err
	}
	fc.window = negotiateWindow(c.creditWindow, rep.Window)
	if rep.MaxRead > 0 && rep.MaxRead < fc.wlimit {
		fc.wlimit = rep.MaxRead
	}
	return nil
}

// getConn returns a pooled or fresh connection for a result stream.
func (c *Client) getConn(ctx context.Context) (*frameConn, error) {
	c.mu.Lock()
	if n := len(c.pool); n > 0 {
		fc := c.pool[n-1]
		c.pool = c.pool[:n-1]
		c.mu.Unlock()
		return fc, nil
	}
	c.mu.Unlock()
	return c.dial(ctx)
}

func (c *Client) putConn(fc *frameConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.discard(fc)
		return
	}
	c.pool = append(c.pool, fc)
	c.mu.Unlock()
}

// Close shuts every pooled connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var first error
	close := func(fc *frameConn) {
		if cl, ok := fc.rw.(io.Closer); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if c.ctrl != nil {
		close(c.ctrl)
		c.ctrl = nil
	}
	for _, fc := range c.pool {
		close(fc)
	}
	c.pool = nil
	return first
}

// Name implements source.Source.
func (c *Client) Name() string { return c.name }

// ctrlCall performs a request/response on the control connection,
// re-dialing it if a previous transport error left it broken.
func (c *Client) ctrlCall(ctx context.Context, tag byte, payload []byte) ([]byte, error) {
	select {
	case c.ctrlSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.ctrlSem }()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, net.ErrClosed
	}
	fc := c.ctrl
	c.mu.Unlock()
	if fc == nil {
		var err error
		if fc, err = c.dial(ctx); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			c.discard(fc)
			return nil, net.ErrClosed
		}
		c.ctrl = fc
		c.mu.Unlock()
	}
	respTag, resp, err := fc.call(ctx, tag, payload)
	if err != nil {
		// The control conn's protocol state is unknown after a
		// transport error: discard it; the next call re-dials.
		c.mu.Lock()
		if c.ctrl == fc {
			c.ctrl = nil
		}
		c.mu.Unlock()
		c.discard(fc)
		return nil, err
	}
	return checkResp(respTag, resp)
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.ctrlCall(ctx, msgTables, nil)
	if err != nil {
		return nil, err
	}
	d := NewDecoder(resp)
	n, err := d.Uvarint()
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

// TableInfo implements source.Source.
func (c *Client) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var e Encoder
	e.String(table)
	resp, err := c.ctrlCall(ctx, msgTableInfo, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := NewDecoder(resp)
	info := &source.TableInfo{}
	if info.Schema, err = d.Schema(); err != nil {
		return nil, err
	}
	if info.KeyColumns, err = d.IntSlice(); err != nil {
		return nil, err
	}
	if len(info.KeyColumns) == 0 {
		info.KeyColumns = nil
	}
	if info.RowCount, err = d.Varint(); err != nil {
		return nil, err
	}
	return info, nil
}

// Capabilities implements source.Source. The remote capability vector is
// fetched once and cached; the fetch runs under the client's base
// context (detached from any one query's cancellation).
func (c *Client) Capabilities() source.Capabilities {
	c.capsOnce.Do(func() {
		resp, err := c.ctrlCall(c.baseCtx, msgCaps, nil)
		if err != nil {
			c.capsErr = err
			return
		}
		d := NewDecoder(resp)
		f, _ := d.Byte()
		c.caps.Filter = source.FilterCap(f)
		c.caps.Project, _ = d.Bool()
		c.caps.Aggregate, _ = d.Bool()
		c.caps.Sort, _ = d.Bool()
		c.caps.Limit, _ = d.Bool()
		c.caps.Write, _ = d.Bool()
		c.caps.Txn, _ = d.Bool()
	})
	return c.caps
}

// Stats fetches optimizer statistics from the remote source (which must
// be a StatsProvider).
func (c *Client) Stats(table string) (*stats.TableStats, error) {
	var e Encoder
	e.String(table)
	resp, err := c.ctrlCall(c.baseCtx, msgStats, e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeStats(NewDecoder(resp))
}

// Execute implements source.Source, streaming result batches over a
// dedicated connection.
func (c *Client) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var e Encoder
	if err := e.Query(q); err != nil {
		return nil, err
	}
	// Propagate the distributed trace context: the server runs the
	// fragment under its own trace and returns the finished subtree in
	// a trailer frame after the row stream (see tracewire.go).
	var tc *traceContext
	parent := obs.CurrentSpan(ctx)
	if tr := obs.TraceFrom(ctx); tr != nil {
		tc = &traceContext{TraceID: tr.ID(), ParentSpan: parent.ID(), Sampled: true}
	}
	e.traceContext(tc)
	// Ship the remaining deadline budget, shrunk by the link's one-way
	// latency estimate, so the remote fragment's deadline expires no
	// later than ours. A budget the WAN latency has already consumed
	// fails fast instead of paying for a round trip that cannot finish.
	budget, ok := executeBudget(ctx, c.rtt.Load())
	if !ok {
		return nil, context.DeadlineExceeded
	}
	e.deadlineBudget(budget)
	fc, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	tag, resp, err := fc.call(ctx, msgExecute, e.Bytes())
	if err != nil {
		c.discard(fc)
		return nil, err
	}
	if _, err := checkResp(tag, resp); err != nil {
		// Protocol state is clean after msgErr; the conn is reusable.
		c.putConn(fc)
		return nil, err
	}
	it := &streamIter{ctx: ctx, c: c, fc: fc, window: fc.window}
	if tc != nil {
		it.traced = true
		it.traceID = tc.TraceID
		it.parent = parent
	}
	return it, nil
}

func (c *Client) discard(fc *frameConn) {
	if cl, ok := fc.rw.(io.Closer); ok {
		_ = cl.Close() // the conn is being thrown away; nothing to report
	}
}

// streamIter reads msgRows batches until msgEnd, then — when this
// stream carried a trace — consumes the msgTrace trailer and stitches
// the remote subtree under the parent span.
type streamIter struct {
	ctx   context.Context
	c     *Client
	fc    *frameConn
	batch []types.Row
	pos   int
	done  bool
	err   error

	traced  bool
	traceID string
	parent  *obs.Span

	// window is the stream's negotiated credit window (0 = flow control
	// off); pending counts msgRows frames consumed since the last
	// grant. Granting at half the window keeps the server streaming
	// while bounding its in-flight frames.
	window  int
	pending int
}

// Next implements source.RowIter.
func (it *streamIter) Next() (types.Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.pos < len(it.batch) {
		r := it.batch[it.pos]
		it.pos++
		return r, nil
	}
	if it.done {
		return nil, io.EOF
	}
	if err := it.ctx.Err(); err != nil {
		it.fail(err)
		return nil, err
	}
	// Mid-stream fault point: injected drops sever the stream here,
	// modelling a source dying while rows are in flight.
	if err := it.fc.injure(it.ctx, faults.OpRead); err != nil {
		it.fail(err)
		return nil, err
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
		it.fail(err)
		return nil, err
	}
	switch tag {
	case msgEnd:
		it.done = true
		if it.traced && len(payload) > 0 && payload[0] == 1 {
			it.finishTrailer()
		} else {
			it.c.putConn(it.fc)
			it.fc = nil
		}
		return nil, io.EOF
	case msgErr:
		_, err := checkResp(tag, payload)
		it.fail(err)
		return nil, err
	case msgRows:
		// The slot array is reused: the previous batch is fully consumed
		// (pos == len) before a new msgRows frame is read, and handed-out
		// rows live in their own frame's slab, not in the slots.
		if it.batch, err = NewDecoder(payload).rowBatch(it.batch); err != nil {
			it.fail(err)
			return nil, err
		}
		it.pos = 0
		if it.window > 0 {
			it.pending++
			if it.pending >= it.window/2 {
				var ge Encoder
				ge.Uvarint(uint64(it.pending))
				if err := it.fc.writeFrame(it.ctx, msgCredit, ge.Bytes()); err != nil {
					it.fail(err)
					return nil, err
				}
				it.pending = 0
			}
		}
		return it.Next()
	default:
		err := fmt.Errorf("wire: unexpected stream tag %d", tag)
		it.fail(err)
		return nil, err
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

// Insert implements source.Writer (autocommit).
func (c *Client) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return c.insert(ctx, "", table, rows)
}

func (c *Client) insert(ctx context.Context, txid, table string, rows []types.Row) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var e Encoder
	e.String(txid)
	e.String(table)
	e.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		e.Row(r)
	}
	return c.affected(c.ctrlCall(ctx, msgInsert, e.Bytes()))
}

// Update implements source.Writer (autocommit).
func (c *Client) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return c.update(ctx, "", table, filter, set)
}

func (c *Client) update(ctx context.Context, txid, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var e Encoder
	e.String(txid)
	e.String(table)
	if err := e.Expr(filter); err != nil {
		return 0, err
	}
	e.Uvarint(uint64(len(set)))
	for _, sc := range set {
		e.Varint(int64(sc.Col))
		if err := e.Expr(sc.Value); err != nil {
			return 0, err
		}
	}
	return c.affected(c.ctrlCall(ctx, msgUpdate, e.Bytes()))
}

// Delete implements source.Writer (autocommit).
func (c *Client) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return c.delete(ctx, "", table, filter)
}

func (c *Client) delete(ctx context.Context, txid, table string, filter expr.Expr) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var e Encoder
	e.String(txid)
	e.String(table)
	if err := e.Expr(filter); err != nil {
		return 0, err
	}
	return c.affected(c.ctrlCall(ctx, msgDelete, e.Bytes()))
}

func (c *Client) affected(resp []byte, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	return NewDecoder(resp).Varint()
}

// ---- transactions ----

// BeginTx implements source.Transactional.
func (c *Client) BeginTx(ctx context.Context) (source.Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp, err := c.ctrlCall(ctx, msgBeginTx, nil)
	if err != nil {
		return nil, err
	}
	id, err := NewDecoder(resp).String()
	if err != nil {
		return nil, err
	}
	return &remoteTx{c: c, id: id}, nil
}

// remoteTx drives a server-side transaction by id.
type remoteTx struct {
	c  *Client
	id string
}

// Insert implements source.Writer within the transaction.
func (t *remoteTx) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return t.c.insert(ctx, t.id, table, rows)
}

// Update implements source.Writer within the transaction.
func (t *remoteTx) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return t.c.update(ctx, t.id, table, filter, set)
}

// Delete implements source.Writer within the transaction.
func (t *remoteTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return t.c.delete(ctx, t.id, table, filter)
}

func (t *remoteTx) protocol(ctx context.Context, tag byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var e Encoder
	e.String(t.id)
	_, err := t.c.ctrlCall(ctx, tag, e.Bytes())
	return err
}

// Prepare implements source.Tx.
func (t *remoteTx) Prepare(ctx context.Context) error { return t.protocol(ctx, msgPrepare) }

// Commit implements source.Tx.
func (t *remoteTx) Commit(ctx context.Context) error { return t.protocol(ctx, msgCommit) }

// Abort implements source.Tx.
func (t *remoteTx) Abort(ctx context.Context) error { return t.protocol(ctx, msgAbort) }
