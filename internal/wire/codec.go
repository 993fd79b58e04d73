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

// messageRoom is the capacity an encoder of per-statement messages — a
// sub-query, a write, the first frame of a reply — starts from. It holds
// a point statement's request or answer, so such a message is allocated
// once instead of reaching its size by five or six doublings from nil,
// and it is small enough that a larger message loses nothing by it.
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
	// strs is where rowBatch gathers a frame's strings: the connection's
	// (frameConn.decoder), reused frame after frame, or nil for one of
	// the frame's own.
	strs *stringScratch
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
	if err := d.values(r); err != nil {
		return nil, err
	}
	return r, nil
}

// values fills dst with the next len(dst) values.
func (d *Decoder) values(dst []types.Value) error {
	for i := range dst {
		var err error
		if dst[i], err = d.Value(); err != nil {
			return err
		}
	}
	return nil
}

// rowBatch reads a rows body — a row count, then that many rows: a
// msgRows payload, an INSERT's rows — into batch, reusing its slot array
// when it is large enough. The rows are carved from one slab, sized from
// the first row's width (a result stream's rows all have one), and their
// strings are substrings of one string block, so a frame costs two
// allocations and not one per row or per string. Each row is cut with a
// full slice expression, so appending to it copies instead of reaching
// its neighbour.
//
// With a nil slab the frame gets its own, which is never written again:
// rows stay valid for as long as the caller keeps them. A caller whose
// consumer is done with a frame's rows before the next frame is read
// passes the slab the previous call returned, and the frame is decoded
// over it; only a frame that needs more room than it has allocates.
// The slab returned is the largest the frame used. The string block is
// the frame's own either way (see stringScratch.place).
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
	strs := d.strs
	if strs == nil {
		strs = new(stringScratch)
	}
	strs.buf, strs.notes = strs.buf[:0], strs.notes[:0]
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
		if err := d.frameValues(row, i, strs); err != nil {
			return nil, nil, err
		}
		batch[i] = row
	}
	strs.place(batch)
	return batch, slab, nil
}

// frameValues fills row i of a frame as values does, except that a
// STRING or BYTES payload is not copied out on its own: its bytes are
// appended to strs and its slot is noted.
func (d *Decoder) frameValues(row types.Row, i int, strs *stringScratch) error {
	for j := range row {
		if d.Remaining() > 0 {
			if k := types.Kind(d.buf[d.pos]); k == types.KindString || k == types.KindBytes {
				d.pos++
				b, err := d.payload()
				if err != nil {
					return err
				}
				strs.buf = append(strs.buf, b...)
				strs.notes = append(strs.notes, stringNote{row: uint32(i), col: uint32(j), end: uint32(len(strs.buf)), kind: k})
				continue
			}
		}
		var err error
		if row[j], err = d.Value(); err != nil {
			return err
		}
	}
	return nil
}

// stringScratch gathers a frame's STRING and BYTES payloads while
// rowBatch reads its rows. A connection keeps one and reuses it frame
// after frame: nothing a row holds points into it, and its notes are
// positions in the batch, not pointers, so it pins no row.
type stringScratch struct {
	buf   []byte
	notes []stringNote
}

// stringNote is a slot waiting for its payload: column col of row row of
// the batch is a value of kind whose bytes run in the scratch from the
// previous note's end (0 for the first) to end. A frame's length is a
// uint32 on the wire, so each fits one.
type stringNote struct {
	row, col, end uint32
	kind          types.Kind
}

// place copies the gathered payloads into the frame's string block, one
// string of exactly their bytes, and points each noted slot at its
// substring. The block is never written again, not even when the next
// frame is decoded over this one's slab: a value copied out of a lent row
// stays valid, and keeps at most one frame's string bytes alive.
func (s *stringScratch) place(batch []types.Row) {
	block := string(s.buf)
	start := uint32(0)
	for _, n := range s.notes {
		p := block[start:n.end]
		if n.kind == types.KindBytes {
			batch[n.row][n.col] = types.NewBytesOf(p)
		} else {
			batch[n.row][n.col] = types.NewString(p)
		}
		start = n.end
	}
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

// IntSlice reads a varint-coded []int.
func (d *Decoder) IntSlice() ([]int, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
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
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		return &expr.ColRef{Index: int(idx), Type: types.Kind(kt), Name: name}, nil
	case exTagConst:
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		return expr.NewConst(v), nil
	case exTagBinary:
		op, err := d.Byte()
		if err != nil {
			return nil, err
		}
		l, err := d.Expr()
		if err != nil {
			return nil, err
		}
		r, err := d.Expr()
		if err != nil {
			return nil, err
		}
		return expr.NewBinary(expr.BinOp(op), l, r), nil
	case exTagUnary:
		op, err := d.Byte()
		if err != nil {
			return nil, err
		}
		inner, err := d.Expr()
		if err != nil {
			return nil, err
		}
		return expr.NewUnary(expr.UnOp(op), inner), nil
	case exTagIsNull:
		neg, err := d.Bool()
		if err != nil {
			return nil, err
		}
		inner, err := d.Expr()
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: neg}, nil
	case exTagInList:
		neg, err := d.Bool()
		if err != nil {
			return nil, err
		}
		operand, err := d.Expr()
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, n)
		for i := range list {
			if list[i], err = d.Expr(); err != nil {
				return nil, err
			}
		}
		return &expr.InList{E: operand, List: list, Negate: neg}, nil
	case exTagCase:
		operand, err := d.Expr()
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		whens := make([]expr.When, n)
		for i := range whens {
			if whens[i].Cond, err = d.Expr(); err != nil {
				return nil, err
			}
			if whens[i].Then, err = d.Expr(); err != nil {
				return nil, err
			}
		}
		els, err := d.Expr()
		if err != nil {
			return nil, err
		}
		return &expr.Case{Operand: operand, Whens: whens, Else: els}, nil
	case exTagCast:
		kt, err := d.Byte()
		if err != nil {
			return nil, err
		}
		inner, err := d.Expr()
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, To: types.Kind(kt)}, nil
	case exTagCall:
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		args := make([]expr.Expr, n)
		for i := range args {
			if args[i], err = d.Expr(); err != nil {
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
	q := &source.Query{}
	var err error
	if q.Table, err = d.String(); err != nil {
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
	if q.Filter, err = d.Expr(); err != nil {
		return nil, err
	}
	if q.GroupBy, err = d.IntSlice(); err != nil {
		return nil, err
	}
	nAggs, err := d.count()
	if err != nil {
		return nil, err
	}
	q.Aggs = make([]source.AggSpec, nAggs)
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
	q.OrderBy = make([]source.OrderSpec, nOrd)
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
	return q, nil
}

// ---- write requests ----

// writeReq is the body of the three write requests: msgInsert carries
// (Table, Rows), msgDelete (Table, Filter), msgUpdate (Table, Filter,
// Set). None names a transaction: a write runs inside the one open on
// the connection that carries it, or autocommits when there is none.
type writeReq struct {
	Table  string
	Rows   []types.Row
	Filter expr.Expr
	Set    []source.SetClause
}

func (e *Encoder) writeReq(tag byte, w *writeReq) error {
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
// rows body, read as a result frame is (rowBatch); the SET-clause count
// is checked against the bytes left (each costs at least one) before
// anything is made for it.
func (d *Decoder) writeReq(tag byte) (w writeReq, err error) {
	if w.Table, err = d.String(); err != nil {
		return w, err
	}
	if tag == msgInsert {
		w.Rows, _, err = d.rowBatch(nil, nil)
		return w, err
	}
	if w.Filter, err = d.Expr(); err != nil || tag == msgDelete {
		return w, err
	}
	n, err := d.count()
	if err != nil {
		return w, err
	}
	w.Set = make([]source.SetClause, n)
	for i := range w.Set {
		col, err := d.Varint()
		if err != nil {
			return w, err
		}
		w.Set[i].Col = int(col)
		if w.Set[i].Value, err = d.Expr(); err != nil {
			return w, err
		}
	}
	return w, nil
}
