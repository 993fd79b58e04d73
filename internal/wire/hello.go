package wire

// Session handshake and deadline propagation.
//
// Hello: the client sends msgHello as the first frame on every fresh
// connection: (version, tenant, requested credit window, inbound frame
// bound). The server answers msgOK with (version, granted window — the
// min of both sides, 0 when either side disables it — and its own
// inbound frame bound); each side then lowers its outbound frame bound
// to the peer's inbound one. The handshake is mandatory: a hello
// announcing another version, or any request arriving before hello, is
// answered msgErr and the connection closed, and a client treats a
// non-msgOK answer as a failed dial.
//
// Deadlines: Client.Execute appends the query's remaining time budget
// (µs, uvarint, 0 = none) after the trace context in the msgExecute
// payload, decremented by the link's observed one-way latency (half
// the RTT EWMA) so the server-side deadline never outlives the
// client's. The server enforces the budget with context.WithTimeout
// around the fragment's execution, so a propagated deadline cancels
// the component store's work mid-scan.

import (
	"context"
	"time"
)

// helloVersion is the protocol revision announced in msgHello.
// Revision 2 ships TIME as (unix seconds, nanoseconds), not one int64
// of nanoseconds.
const helloVersion = 2

// defaultCreditWindow is how many msgRows frames either side is
// willing to have in flight before requiring a credit grant. The
// window trades stream throughput against peak per-stream buffering:
// at 256 rows per frame, 32 frames keep ~8k rows in flight.
const defaultCreditWindow = 32

// minCreditWindow keeps the grant protocol deadlock-free: the client
// grants at half the window, so the window must be at least 2.
const minCreditWindow = 2

// hello is the decoded msgHello request.
type hello struct {
	Version int
	Tenant  string
	Window  int // requested credit window (frames); 0 disables
	MaxRead int // sender's inbound frame bound (bytes)
}

func (e *Encoder) hello(h *hello) {
	e.Uvarint(uint64(h.Version))
	e.String(h.Tenant)
	e.Uvarint(uint64(h.Window))
	e.Uvarint(uint64(h.MaxRead))
}

func (d *Decoder) hello() (*hello, error) {
	h := &hello{}
	v, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.Version = int(v)
	if h.Tenant, err = d.String(); err != nil {
		return nil, err
	}
	w, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.Window = int(w)
	m, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.MaxRead = int(m)
	return h, nil
}

// helloReply is the server's msgOK answer to msgHello.
type helloReply struct {
	Version int
	Window  int // granted credit window; min(client, server), 0 = off
	MaxRead int // server's inbound frame bound
}

func (e *Encoder) helloReply(h *helloReply) {
	e.Uvarint(uint64(h.Version))
	e.Uvarint(uint64(h.Window))
	e.Uvarint(uint64(h.MaxRead))
}

func (d *Decoder) helloReply() (*helloReply, error) {
	h := &helloReply{}
	v, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.Version = int(v)
	w, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.Window = int(w)
	m, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.MaxRead = int(m)
	return h, nil
}

// negotiateWindow combines both sides' credit windows: 0 on either
// side disables flow control; otherwise the smaller window wins, with
// the protocol's floor applied.
func negotiateWindow(client, server int) int {
	if client <= 0 || server <= 0 {
		return 0
	}
	w := client
	if server < w {
		w = server
	}
	if w < minCreditWindow {
		w = minCreditWindow
	}
	return w
}

// deadlineBudget appends the remaining time budget (µs; 0 = none) to a
// msgExecute payload.
func (e *Encoder) deadlineBudget(budget time.Duration) {
	us := budget.Microseconds()
	if us < 0 {
		us = 0
	}
	e.Uvarint(uint64(us))
}

// deadlineBudget reads the time budget that ends a msgExecute payload.
func (d *Decoder) deadlineBudget() (time.Duration, error) {
	us, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	return time.Duration(us) * time.Microsecond, nil
}

// executeBudget derives the budget to ship with a query: the context's
// remaining time minus the link's observed one-way latency, so the
// remote deadline expires no later than the local one. Returns 0 (no
// budget) for contexts without a deadline, and ok=false when the
// budget is already exhausted — the caller should fail fast instead of
// shipping a dead query.
func executeBudget(ctx context.Context, rttNanos int64) (time.Duration, bool) {
	dl, has := ctx.Deadline()
	if !has {
		return 0, true
	}
	budget := time.Until(dl) - time.Duration(rttNanos)/2
	if budget <= 0 {
		return 0, false
	}
	return budget, true
}
