// Package wire implements the federation's network layer: a compact
// length-prefixed binary protocol that exposes a source.Source (and its
// optional Writer/Transactional facets) over TCP, plus a configurable
// latency/bandwidth simulator so experiments can model wide-area links.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// maxFrame bounds a single protocol frame (16 MiB).
const maxFrame = 16 << 20

// Encoder writes protocol values into a byte buffer. The zero value is
// ready to use and grows from nothing.
type Encoder struct {
	buf []byte
}

// messageRoom is the capacity an encoder of a client's per-statement
// messages — a sub-query, a write — starts from. It holds a point
// statement's request, so such a message is allocated once instead of
// reaching its size by five or six doublings from nil, and it is small
// enough that a larger message loses nothing by it. A server answers in
// its connection's encoder (connState.reply).
const messageRoom = 256

// newMessage returns an encoder with messageRoom to start from.
func newMessage() Encoder { return Encoder{buf: make([]byte, 0, messageRoom)} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Byte appends one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Float appends a float64.
func (e *Encoder) Float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// Value appends one tagged value.
func (e *Encoder) Value(v types.Value) {
	e.Byte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		e.Bool(v.Bool())
	case types.KindInt:
		e.Varint(v.Int())
	case types.KindFloat:
		e.Float(v.Float())
	case types.KindString:
		e.String(v.Str())
	case types.KindBytes:
		b := v.Bytes()
		e.Uvarint(uint64(len(b)))
		e.buf = append(e.buf, b...)
	case types.KindTime:
		// The (seconds, nanos) pair types.Value holds: a single int64 of
		// nanoseconds cannot carry a 0001-01-01 or 9999-12-31 sentinel.
		t := v.Time()
		e.Varint(t.Unix())
		e.Uvarint(uint64(t.Nanosecond()))
	}
}

// Row appends a row.
func (e *Encoder) Row(r types.Row) {
	e.Uvarint(uint64(len(r)))
	for _, v := range r {
		e.Value(v)
	}
}

// rowCountRoom is the room beginRows leaves for a row count: any count
// fits.
const rowCountRoom = binary.MaxVarintLen64

// beginRows starts a rows body — a row count, then that many rows, the
// whole of a msgRows payload and the tail of an INSERT — whose count is
// known only when the body is cut. It leaves room for the count at the
// end of the buffer and returns where the room starts.
func (e *Encoder) beginRows() (mark int) {
	var room [rowCountRoom]byte
	mark = len(e.buf)
	e.buf = append(e.buf, room[:]...)
	return mark
}

// rowsLen is the length of the message endRows would return for n rows
// now.
func (e *Encoder) rowsLen(n int) int {
	var count [rowCountRoom]byte
	return len(e.buf) - rowCountRoom + binary.PutUvarint(count[:], uint64(n))
}

// endRows writes n, the number of rows appended since the beginRows that
// returned mark, into the end of the room it left, slides what precedes
// mark up against the count and returns the message from its first byte:
// the rows are not copied to put the count in front of them.
func (e *Encoder) endRows(mark, n int) []byte {
	var count [rowCountRoom]byte
	k := binary.PutUvarint(count[:], uint64(n))
	gap := rowCountRoom - k
	copy(e.buf[mark+gap:], count[:k])
	copy(e.buf[gap:], e.buf[:mark])
	return e.buf[gap:]
}

// Schema appends a schema.
func (e *Encoder) Schema(s *types.Schema) {
	e.Uvarint(uint64(s.Len()))
	for _, c := range s.Columns {
		e.String(c.Table)
		e.String(c.Name)
		e.Byte(byte(c.Type))
		e.Bool(c.Nullable)
	}
}

// IntSlice appends a varint-coded []int.
func (e *Encoder) IntSlice(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Varint(int64(x))
	}
}

// Expression node tags.
const (
	exTagNil byte = iota
	exTagColRef
	exTagConst
	exTagBinary
	exTagUnary
	exTagIsNull
	exTagInList
	exTagCase
	exTagCast
	exTagCall
)

// Expr appends an expression tree. Only bound, subquery-free expressions
// can travel (the planner guarantees pushed filters satisfy this).
func (e *Encoder) Expr(x expr.Expr) error {
	switch n := x.(type) {
	case nil:
		e.Byte(exTagNil)
	case *expr.ColRef:
		e.Byte(exTagColRef)
		e.Varint(int64(n.Index))
		e.Byte(byte(n.Type))
		e.String(n.Name)
	case *expr.Const:
		e.Byte(exTagConst)
		e.Value(n.Val)
	case *expr.Binary:
		e.Byte(exTagBinary)
		e.Byte(byte(n.Op))
		if err := e.Expr(n.L); err != nil {
			return err
		}
		return e.Expr(n.R)
	case *expr.Unary:
		e.Byte(exTagUnary)
		e.Byte(byte(n.Op))
		return e.Expr(n.E)
	case *expr.IsNull:
		e.Byte(exTagIsNull)
		e.Bool(n.Negate)
		return e.Expr(n.E)
	case *expr.InList:
		e.Byte(exTagInList)
		e.Bool(n.Negate)
		if err := e.Expr(n.E); err != nil {
			return err
		}
		e.Uvarint(uint64(len(n.List)))
		for _, le := range n.List {
			if err := e.Expr(le); err != nil {
				return err
			}
		}
	case *expr.Case:
		e.Byte(exTagCase)
		if err := e.Expr(n.Operand); err != nil {
			return err
		}
		e.Uvarint(uint64(len(n.Whens)))
		for _, w := range n.Whens {
			if err := e.Expr(w.Cond); err != nil {
				return err
			}
			if err := e.Expr(w.Then); err != nil {
				return err
			}
		}
		return e.Expr(n.Else)
	case *expr.Cast:
		e.Byte(exTagCast)
		e.Byte(byte(n.To))
		return e.Expr(n.E)
	case *expr.Call:
		e.Byte(exTagCall)
		e.String(n.Name)
		e.Uvarint(uint64(len(n.Args)))
		for _, a := range n.Args {
			if err := e.Expr(a); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("wire: cannot encode expression node %T", x)
	}
	return nil
}

// Query appends a source.Query.
func (e *Encoder) Query(q *source.Query) error {
	e.String(q.Table)
	// Columns: distinguish nil (all) from empty.
	if q.Columns == nil {
		e.Bool(false)
	} else {
		e.Bool(true)
		e.IntSlice(q.Columns)
	}
	if err := e.Expr(q.Filter); err != nil {
		return err
	}
	e.IntSlice(q.GroupBy)
	e.Uvarint(uint64(len(q.Aggs)))
	for _, a := range q.Aggs {
		e.Byte(byte(a.Kind))
		e.Varint(int64(a.Col))
		e.Bool(a.Star)
		e.Bool(a.Distinct)
	}
	e.Uvarint(uint64(len(q.OrderBy)))
	for _, o := range q.OrderBy {
		e.Varint(int64(o.Col))
		e.Bool(o.Desc)
	}
	e.Varint(q.Limit)
	return nil
}

// Decoder reads protocol values from a byte slice.
type Decoder struct {
	buf []byte
	pos int
	// depth is how many Expr or Span decodes are on the stack.
	depth int
	// text is where the strings d decodes wait for their block: the
	// connection's frames' (frameConn.decoder), a served request's
	// arena's (connState.request), or else its own arena's (block).
	text *textBlock
	// arena is where Query, Expr and writeReq carve what they decode: a
	// served connection's, or one of the decoder's own (nodes).
	arena *decodeArena
	// tables are the tables a served connection has bound against
	// (connState.request), read by tableName.
	tables []boundTable
	// keep is set while a write's SET values are read: a store may keep
	// what they evaluate to, so their strings are copied out each on its
	// own (Value), not placed in the request's string block, which one
	// kept value would keep alive whole.
	keep bool
}

// nodes returns the arena d decodes a request into, making d one of its
// own when it has none.
func (d *Decoder) nodes() *decodeArena {
	if d.arena == nil {
		d.arena = new(decodeArena)
	}
	return d.arena
}

// block returns the text block d's strings wait in.
func (d *Decoder) block() *textBlock {
	if d.text == nil {
		d.text = &d.nodes().textBlock
	}
	return d.text
}

// maxNesting bounds how deep an expression or span tree a payload may
// nest. A level costs two bytes on the wire and a stack frame to decode,
// so without a bound one 16 MiB frame of nested NOTs overflows the
// goroutine stack, which is fatal to the process, not a recoverable
// panic. Real trees are a few levels deep; a conjunction of n predicates
// is n levels.
const maxNesting = 10000

// descend enters one level of a recursive decode; the caller defers
// d.ascend when it succeeds.
func (d *Decoder) descend() error {
	if d.depth >= maxNesting {
		return fmt.Errorf("wire: payload nests deeper than %d levels", maxNesting)
	}
	d.depth++
	return nil
}

func (d *Decoder) ascend() { d.depth-- }

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining reports unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) take(n int) ([]byte, error) {
	if d.Remaining() < n {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	d.pos += n
	return v, nil
}

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	d.pos += n
	return v, nil
}

// count reads the length of what follows — elements, bytes — and
// refuses one the rest of the payload could not hold: every element
// costs at least a byte, so Remaining bounds what a hostile length can
// make the caller allocate. Compared as a uint64, because 2^63 or more
// is negative as an int and would slip past take.
func (d *Decoder) count() (int, error) {
	n, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}

// Byte reads one byte.
func (d *Decoder) Byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Bool reads a boolean.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	return b != 0, err
}

// payload reads a length-prefixed run of bytes, which points into the
// buffer being decoded.
func (d *Decoder) payload() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.payload()
	return string(b), err
}

// Float reads a float64.
func (d *Decoder) Float() (float64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Value reads one tagged value.
func (d *Decoder) Value() (types.Value, error) {
	tag, err := d.Byte()
	if err != nil {
		return types.Null, err
	}
	switch types.Kind(tag) {
	case types.KindNull:
		return types.Null, nil
	case types.KindBool:
		b, err := d.Bool()
		return types.NewBool(b), err
	case types.KindInt:
		v, err := d.Varint()
		return types.NewInt(v), err
	case types.KindFloat:
		f, err := d.Float()
		return types.NewFloat(f), err
	case types.KindString:
		s, err := d.String()
		return types.NewString(s), err
	case types.KindBytes:
		b, err := d.payload()
		if err != nil {
			return types.Null, err
		}
		return types.NewBytes(b), nil
	case types.KindTime:
		sec, err := d.Varint()
		if err != nil {
			return types.Null, err
		}
		nsec, err := d.Uvarint()
		if err != nil {
			return types.Null, err
		}
		if nsec >= 1e9 {
			return types.Null, fmt.Errorf("wire: bad TIME nanoseconds %d", nsec)
		}
		return types.NewTime(time.Unix(sec, int64(nsec))), nil
	default:
		return types.Null, fmt.Errorf("wire: bad value tag %d", tag)
	}
}

// Row reads one row, each of its strings copied out on its own. A result
// frame and an INSERT's rows are read by rowBatch; Row stays for a reader
// of single rows, the repository benchmark's codec probe.
func (d *Decoder) Row() (types.Row, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	r := make(types.Row, n)
	for i := range r {
		if r[i], err = d.Value(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// rowBatch reads a rows body — a row count, then that many rows: a
// msgRows payload, an INSERT's rows — into batch, reusing its slot array
// when it is large enough. The rows are carved from one slab, sized from
// the first row's width (a result stream's rows all have one), and their
// values are read as a request's constants are (constant): their strings
// are substrings of one string block, so a frame costs two allocations
// and not one per row or per string. Each row is cut with a full slice
// expression, so appending to it copies instead of reaching its
// neighbour.
//
// With a nil slab the frame gets its own, which is never written again:
// rows stay valid for as long as the caller keeps them. A caller whose
// consumer is done with a frame's rows before the next frame is read
// passes the slab the previous call returned, and the frame is decoded
// over it; only a frame that needs more room than it has allocates.
// The slab returned is the largest the frame used. The string block is
// the frame's own either way (textBlock.place).
func (d *Decoder) rowBatch(batch []types.Row, slab []types.Value) ([]types.Row, []types.Value, error) {
	n, err := d.count()
	if err != nil {
		return nil, nil, err
	}
	if cap(batch) >= n {
		batch = batch[:n]
	} else {
		// The slot array grows to the frame size once per stream.
		batch = make([]types.Row, n)
	}
	free := slab // not carved yet
	for i := range batch {
		width, err := d.count()
		if err != nil {
			return nil, nil, err
		}
		if free == nil || width > len(free) {
			// The first row, or one wider than those before it: room
			// for the rest of the frame at this width.
			free = make([]types.Value, min(width*(len(batch)-i), d.Remaining()))
			if len(free) > len(slab) {
				slab = free
			}
		}
		row := free[:width:width]
		free = free[width:]
		for j := range row {
			if err := d.constant(&row[j]); err != nil {
				return nil, nil, err
			}
		}
		batch[i] = row
	}
	d.text.place()
	return batch, slab, nil
}

// Schema reads a schema.
func (d *Decoder) Schema() (*types.Schema, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	s := &types.Schema{Columns: make([]types.Column, n)}
	for i := range s.Columns {
		c := &s.Columns[i]
		if c.Table, err = d.String(); err != nil {
			return nil, err
		}
		if c.Name, err = d.String(); err != nil {
			return nil, err
		}
		tag, err := d.Byte()
		if err != nil {
			return nil, err
		}
		c.Type = types.Kind(tag)
		if c.Nullable, err = d.Bool(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// IntSlice reads a varint-coded []int: from d's arena when it has one,
// else a slice of its own (a described table's key columns, which a
// client keeps).
func (d *Decoder) IntSlice() ([]int, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	var out []int
	if d.arena != nil {
		out = d.arena.ints.take(n)
	} else {
		out = make([]int, n)
	}
	for i := range out {
		v, err := d.Varint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// Expr reads an expression tree.
func (d *Decoder) Expr() (expr.Expr, error) {
	x, err := d.expr()
	if err == nil {
		d.text.place()
	}
	return x, err
}

// constant reads a value into v, as Value does, except that a STRING
// or BYTES payload waits in d's text block (textBlock.place) instead of
// being copied out on its own, unless d keeps it.
func (d *Decoder) constant(v *types.Value) (err error) {
	if !d.keep && d.Remaining() > 0 {
		if k := types.Kind(d.buf[d.pos]); k == types.KindString || k == types.KindBytes {
			d.pos++
			b, err := d.payload()
			if err == nil {
				d.block().note(nil, v, k, b)
			}
			return err
		}
	}
	*v, err = d.Value()
	return err
}

// tableName reads a table name. One among d's tables is that table's
// name, not a new string, and its description is left for the request's
// binding (decodeArena.bound).
func (d *Decoder) tableName() (string, error) {
	b, err := d.payload()
	if err != nil {
		return "", err
	}
	for _, t := range d.tables {
		if t.name == string(b) {
			d.nodes().bound = t.info
			return t.name, nil
		}
	}
	return string(b), nil
}

// expr reads an expression tree into d's arena; its strings are placed
// by whoever reads the request it belongs to.
func (d *Decoder) expr() (expr.Expr, error) {
	if err := d.descend(); err != nil {
		return nil, err
	}
	defer d.ascend()
	tag, err := d.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case exTagNil:
		return nil, nil
	case exTagColRef:
		idx, err := d.Varint()
		if err != nil {
			return nil, err
		}
		kt, err := d.Byte()
		if err != nil {
			return nil, err
		}
		name, err := d.payload()
		if err != nil {
			return nil, err
		}
		n := d.nodes().colRefs.one()
		n.Index, n.Type = int(idx), types.Kind(kt)
		if len(name) > 0 {
			d.block().note(&n.Name, nil, 0, name)
		}
		return n, nil
	case exTagConst:
		n := d.nodes().consts.one()
		if err := d.constant(&n.Val); err != nil {
			return nil, err
		}
		return n, nil
	case exTagBinary:
		op, err := d.Byte()
		if err != nil {
			return nil, err
		}
		l, err := d.expr()
		if err != nil {
			return nil, err
		}
		r, err := d.expr()
		if err != nil {
			return nil, err
		}
		n := d.nodes().binaries.one()
		n.Op, n.L, n.R = expr.BinOp(op), l, r
		return n, nil
	case exTagUnary:
		op, err := d.Byte()
		if err != nil {
			return nil, err
		}
		inner, err := d.expr()
		if err != nil {
			return nil, err
		}
		n := d.nodes().unaries.one()
		n.Op, n.E = expr.UnOp(op), inner
		return n, nil
	case exTagIsNull:
		neg, err := d.Bool()
		if err != nil {
			return nil, err
		}
		inner, err := d.expr()
		if err != nil {
			return nil, err
		}
		n := d.nodes().isNulls.one()
		n.E, n.Negate = inner, neg
		return n, nil
	case exTagInList:
		neg, err := d.Bool()
		if err != nil {
			return nil, err
		}
		operand, err := d.expr()
		if err != nil {
			return nil, err
		}
		k, err := d.count()
		if err != nil {
			return nil, err
		}
		list := d.nodes().exprs.take(k)
		for i := range list {
			if list[i], err = d.expr(); err != nil {
				return nil, err
			}
		}
		n := d.nodes().inLists.one()
		n.E, n.List, n.Negate = operand, list, neg
		return n, nil
	case exTagCase:
		operand, err := d.expr()
		if err != nil {
			return nil, err
		}
		k, err := d.count()
		if err != nil {
			return nil, err
		}
		whens := d.nodes().whens.take(k)
		for i := range whens {
			if whens[i].Cond, err = d.expr(); err != nil {
				return nil, err
			}
			if whens[i].Then, err = d.expr(); err != nil {
				return nil, err
			}
		}
		els, err := d.expr()
		if err != nil {
			return nil, err
		}
		n := d.nodes().cases.one()
		n.Operand, n.Whens, n.Else = operand, whens, els
		return n, nil
	case exTagCast:
		kt, err := d.Byte()
		if err != nil {
			return nil, err
		}
		inner, err := d.expr()
		if err != nil {
			return nil, err
		}
		n := d.nodes().casts.one()
		n.E, n.To = inner, types.Kind(kt)
		return n, nil
	case exTagCall:
		// A function call is rare in a shipped filter: its node and its
		// name come from the heap, its arguments from the arena.
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		k, err := d.count()
		if err != nil {
			return nil, err
		}
		args := d.nodes().exprs.take(k)
		for i := range args {
			if args[i], err = d.expr(); err != nil {
				return nil, err
			}
		}
		return expr.NewCall(name, args...), nil
	default:
		return nil, fmt.Errorf("wire: bad expression tag %d", tag)
	}
}

// Query reads a source.Query.
func (d *Decoder) Query() (*source.Query, error) {
	q := d.nodes().queries.one()
	var err error
	if q.Table, err = d.tableName(); err != nil {
		return nil, err
	}
	hasCols, err := d.Bool()
	if err != nil {
		return nil, err
	}
	if hasCols {
		if q.Columns, err = d.IntSlice(); err != nil {
			return nil, err
		}
		if q.Columns == nil {
			q.Columns = []int{}
		}
	}
	if q.Filter, err = d.expr(); err != nil {
		return nil, err
	}
	if q.GroupBy, err = d.IntSlice(); err != nil {
		return nil, err
	}
	nAggs, err := d.count()
	if err != nil {
		return nil, err
	}
	q.Aggs = d.arena.aggs.take(nAggs)
	for i := range q.Aggs {
		kind, err := d.Byte()
		if err != nil {
			return nil, err
		}
		col, err := d.Varint()
		if err != nil {
			return nil, err
		}
		star, err := d.Bool()
		if err != nil {
			return nil, err
		}
		distinct, err := d.Bool()
		if err != nil {
			return nil, err
		}
		q.Aggs[i] = source.AggSpec{Kind: expr.AggKind(kind), Col: int(col), Star: star, Distinct: distinct}
	}
	if len(q.Aggs) == 0 {
		q.Aggs = nil
	}
	nOrd, err := d.count()
	if err != nil {
		return nil, err
	}
	q.OrderBy = d.arena.orders.take(nOrd)
	for i := range q.OrderBy {
		col, err := d.Varint()
		if err != nil {
			return nil, err
		}
		desc, err := d.Bool()
		if err != nil {
			return nil, err
		}
		q.OrderBy[i] = source.OrderSpec{Col: int(col), Desc: desc}
	}
	if len(q.OrderBy) == 0 {
		q.OrderBy = nil
	}
	if q.Limit, err = d.Varint(); err != nil {
		return nil, err
	}
	if len(q.GroupBy) == 0 {
		q.GroupBy = nil
	}
	d.text.place()
	return q, nil
}

// ---- write requests ----

// writeReq is the body of the three write requests: Begin, Table, then
// msgInsert's Rows, msgDelete's Filter or msgUpdate's Filter and Set.
// None names a transaction: a write runs inside the one open on the
// connection that carries it (Begin opens it), or autocommits.
type writeReq struct {
	Begin  bool
	Table  string
	Rows   []types.Row
	Filter expr.Expr
	Set    []source.SetClause
}

func (e *Encoder) writeReq(tag byte, w *writeReq) error {
	e.Bool(w.Begin)
	e.String(w.Table)
	if tag == msgInsert {
		mark := e.beginRows()
		for _, r := range w.Rows {
			e.Row(r)
		}
		e.buf = e.endRows(mark, len(w.Rows)) // starts past the room the count left unused
		return nil
	}
	if err := e.Expr(w.Filter); err != nil || tag == msgDelete {
		return err
	}
	e.Uvarint(uint64(len(w.Set)))
	for _, sc := range w.Set {
		e.Varint(int64(sc.Col))
		if err := e.Expr(sc.Value); err != nil {
			return err
		}
	}
	return nil
}

// writeReq decodes the body of write request tag. An INSERT's rows are a
// rows body, read as a result frame is (rowBatch), into a slab of their
// own even over an arena, because a store may keep them; their strings
// are the request's string block, made for them alone. A SET value's
// strings are each its own (keep). The SET-clause count is checked
// against the bytes left (each costs at least one) before anything is
// made for it.
func (d *Decoder) writeReq(tag byte) (w writeReq, err error) {
	if w.Begin, err = d.Bool(); err != nil {
		return w, err
	}
	if w.Table, err = d.tableName(); err != nil {
		return w, err
	}
	if tag == msgInsert {
		w.Rows, _, err = d.rowBatch(nil, nil)
		return w, err
	}
	if w.Filter, err = d.expr(); err != nil {
		return w, err
	}
	if tag == msgUpdate {
		n, err := d.count()
		if err != nil {
			return w, err
		}
		w.Set = d.nodes().sets.take(n)
		for i := range w.Set {
			col, err := d.Varint()
			if err != nil {
				return w, err
			}
			w.Set[i].Col = int(col)
			d.keep = true
			w.Set[i].Value, err = d.expr()
			d.keep = false
			if err != nil {
				return w, err
			}
		}
	}
	d.text.place()
	return w, nil
}
