package wire

// Session handshake and deadline propagation.
//
// Hello: the client sends msgHello as the first frame on every fresh
// connection: (version, tenant, inbound frame bound, describe). The
// server answers msgOK with (its own inbound frame bound, the served
// source's capability vector, its described tables); each side then
// lowers its outbound frame bound to the peer's inbound one. The
// handshake is mandatory: a hello announcing another version, or any
// request arriving before hello, is answered msgErr and the connection
// closed, and a client treats a non-msgOK or undecodable answer as a
// failed dial — so a Client that exists knows what its source can be
// asked.
//
// Describe: the connection DialContext opens asks for the source's
// export schema, and the reply carries each table's name and the
// description msgTableInfo would return (schema, key columns, row
// count), for as many tables as fit the client's frame bound. A table
// the source cannot describe is left out; so is every table past the
// bound. The client answers the first TableInfo of a described table
// from the reply, so mapping a fragment costs no round trip; every
// other TableInfo, and any after the client has written the table,
// goes over the wire. Connections the pool dials later do not ask.
//
// Deadlines: the msgExecute header carries the query's remaining time
// (executeBudget), which the server enforces with context.WithTimeout
// around the fragment's execution. The RTT estimate it is decremented by
// is sampled by every request's wait for its answer's first frame, the
// dial's hello first; a sub-query's includes its first batch.

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
// has no credit grant: a result stream flows server → client only;
// revision 6 lets a hello ask for the served tables' descriptions and
// carries them in the reply; revision 7 has no msgBeginTx: a write
// request's Begin bit opens the connection's transaction; revision 8
// answers msgExecute without msgOK, msgEnd carrying the last rows.
const helloVersion = 8

// hello is the decoded msgHello request.
type hello struct {
	Version  int
	Tenant   string
	MaxRead  int  // sender's inbound frame bound (bytes)
	Describe bool // the reply should describe the served tables
}

func (e *Encoder) hello(h *hello) {
	e.Uvarint(uint64(h.Version))
	e.String(h.Tenant)
	e.Uvarint(uint64(h.MaxRead))
	e.Bool(h.Describe)
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
	if h.Describe, err = d.Bool(); err != nil {
		return nil, err
	}
	return h, nil
}

// helloReply is the server's msgOK answer to msgHello.
type helloReply struct {
	MaxRead int // server's inbound frame bound
	Caps    source.Capabilities
	// Tables is the served source's export schema: empty unless the
	// hello asked for it.
	Tables []describedTable
}

// describedTable is one table of a hello reply's export schema.
type describedTable struct {
	Name string
	Info *source.TableInfo
}

func (e *Encoder) helloReply(h *helloReply) {
	e.helloHead(h)
	e.Uvarint(uint64(len(h.Tables)))
	for _, t := range h.Tables {
		e.describedTable(t)
	}
}

// helloHead appends what every hello reply carries: the frame bound and
// the capability vector.
func (e *Encoder) helloHead(h *helloReply) {
	e.Uvarint(uint64(h.MaxRead))
	e.Byte(byte(h.Caps.Filter))
	for _, b := range []bool{h.Caps.Project, h.Caps.Aggregate, h.Caps.Sort, h.Caps.Limit, h.Caps.Write, h.Caps.Txn} {
		e.Bool(b)
	}
}

func (e *Encoder) describedTable(t describedTable) {
	e.String(t.Name)
	e.tableInfo(t.Info)
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
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	h.Tables = make([]describedTable, n)
	for i := range h.Tables {
		t := &h.Tables[i]
		if t.Name, err = d.String(); err != nil {
			return nil, err
		}
		if t.Info, err = d.tableInfo(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// tableInfo appends a table's description: the body of a msgTableInfo
// answer, and of each table a hello reply describes.
func (e *Encoder) tableInfo(info *source.TableInfo) {
	e.Schema(info.Schema)
	e.IntSlice(info.KeyColumns)
	e.Varint(info.RowCount)
}

func (d *Decoder) tableInfo() (*source.TableInfo, error) {
	info := &source.TableInfo{}
	var err error
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
