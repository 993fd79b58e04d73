package wire

// Session handshake and deadline propagation.
//
// Hello: the client sends msgHello as the first frame on every fresh
// connection: (version, tenant, inbound frame bound). The server answers
// msgOK with (its own inbound frame bound, the served source's
// capability vector); each side then lowers its outbound frame bound to
// the peer's inbound one. The handshake is mandatory: a hello
// announcing another version, or any request arriving before hello, is
// answered msgErr and the connection closed, and a client treats a
// non-msgOK or undecodable answer as a failed dial — so a Client that
// exists knows what its source can be asked.
//
// Deadlines: Client.Execute sends the query's remaining time budget
// (µs, uvarint, 0 = none) in the msgExecute header (subquery.go),
// decremented by the link's observed one-way latency (half the RTT
// EWMA) so the server-side deadline never outlives the client's. The
// server enforces the budget with context.WithTimeout around the
// fragment's execution, so a propagated deadline cancels the component
// store's work mid-scan.

import (
	"context"
	"time"

	"gis/internal/source"
)

// helloVersion is the protocol revision announced in msgHello.
// Revision 2 shipped TIME as (unix seconds, nanoseconds); revision 3
// carries one conversation per connection — writes and 2PC messages
// name no transaction — and the capability vector in the hello reply;
// revision 4 opens msgExecute with one header and ends a result stream
// with one frame, msgEnd carrying the footer (subquery.go); revision 5
// has no credit grant: a result stream flows server → client only.
const helloVersion = 5

// hello is the decoded msgHello request.
type hello struct {
	Version int
	Tenant  string
	MaxRead int // sender's inbound frame bound (bytes)
}

func (e *Encoder) hello(h *hello) {
	e.Uvarint(uint64(h.Version))
	e.String(h.Tenant)
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
	m, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.MaxRead = int(m)
	return h, nil
}

// helloReply is the server's msgOK answer to msgHello.
type helloReply struct {
	MaxRead int // server's inbound frame bound
	Caps    source.Capabilities
}

func (e *Encoder) helloReply(h *helloReply) {
	e.Uvarint(uint64(h.MaxRead))
	e.Byte(byte(h.Caps.Filter))
	for _, b := range []bool{h.Caps.Project, h.Caps.Aggregate, h.Caps.Sort, h.Caps.Limit, h.Caps.Write, h.Caps.Txn} {
		e.Bool(b)
	}
}

func (d *Decoder) helloReply() (*helloReply, error) {
	h := &helloReply{}
	m, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	h.MaxRead = int(m)
	f, err := d.Byte()
	if err != nil {
		return nil, err
	}
	h.Caps.Filter = source.FilterCap(f)
	for _, b := range []*bool{&h.Caps.Project, &h.Caps.Aggregate, &h.Caps.Sort, &h.Caps.Limit, &h.Caps.Write, &h.Caps.Txn} {
		if *b, err = d.Bool(); err != nil {
			return nil, err
		}
	}
	return h, nil
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
