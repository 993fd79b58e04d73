package wire

import (
	"unsafe"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// decodeArena is the storage a served connection's requests decode into
// (DESIGN.md "What a served sub-query owns"). A connection serves one
// request at a time, so the arena is reset when a request has ended —
// its stream sent, its write applied — and the next one's decode reuses
// what the last one's took (connState.endRequest). A decoder without a
// connection's arena makes one of its own, which is never reset, so what
// it decodes is the caller's to keep (Decoder.nodes).
//
// What lives where:
//   - nodes, the Query and every slice of a decoded request are carved
//     from the typed slabs below and are valid until the next reset;
//   - a table name the connection has bound against is that table's
//     name (Decoder.tableName), so none is made twice;
//   - a SET value's STRING or BYTES is a string of its own, because a
//     store may keep it (Decoder.keep);
//   - every other STRING or BYTES payload and every column name of one
//     request is a substring of one string made for that request
//     (textBlock.place), which is never written again: one that is kept
//     stays valid, and keeps the block alive with it.
type decodeArena struct {
	queries  slab[source.Query]
	colRefs  slab[expr.ColRef]
	consts   slab[expr.Const]
	binaries slab[expr.Binary]
	unaries  slab[expr.Unary]
	isNulls  slab[expr.IsNull]
	inLists  slab[expr.InList]
	cases    slab[expr.Case]
	casts    slab[expr.Cast]
	exprs    slab[expr.Expr]
	whens    slab[expr.When]
	ints     slab[int]
	aggs     slab[source.AggSpec]
	orders   slab[source.OrderSpec]
	sets     slab[source.SetClause]

	// textBlock gathers the request's string payloads until the decode
	// that read them places them; reset trims it.
	textBlock

	// bound describes the table the request names when the connection
	// has bound against it (Decoder.tableName), for Server.tableInfo.
	bound *source.TableInfo
}

// keptBytes bounds what reset keeps of a slab or of the text buffer: a
// request that decoded a long IN list does not pin its blocks for the
// life of the connection.
const keptBytes = 4 << 10

// firstBlockBytes is the size a slab's first block is made at.
const firstBlockBytes = 256

// slab hands out zeroed runs of T carved from one block. A run that does
// not fit starts a new block, twice as large, and the old one is left to
// the runs already carved from it, so nothing handed out moves.
type slab[T any] struct {
	block []T
}

// one returns a zeroed T.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// take returns n zeroed Ts.
func (s *slab[T]) take(n int) []T {
	if n > cap(s.block)-len(s.block) {
		size := int(unsafe.Sizeof(*new(T)))
		grown := max(2*cap(s.block), firstBlockBytes/size, 1)
		s.block = make([]T, 0, max(n, min(grown, keptBytes/size)))
	}
	at := len(s.block)
	s.block = s.block[:at+n]
	return s.block[at : at+n : at+n]
}

// reset zeroes what the last request took and keeps the block for the
// next request unless it is larger than keptBytes. Zeroing is what makes
// a node carved again a new one — an InList's constant set is built
// once, on first use, and must not carry over to the IN list decoded
// into its node next — and it keeps the last request's strings from
// being pinned.
func (s *slab[T]) reset() {
	clear(s.block)
	s.block = s.block[:0]
	if cap(s.block)*int(unsafe.Sizeof(*new(T))) > keptBytes {
		s.block = nil
	}
}

// reset makes everything the last request decoded available to the
// next one: call it once that request has ended.
func (a *decodeArena) reset() {
	a.queries.reset()
	a.colRefs.reset()
	a.consts.reset()
	a.binaries.reset()
	a.unaries.reset()
	a.isNulls.reset()
	a.inLists.reset()
	a.cases.reset()
	a.casts.reset()
	a.exprs.reset()
	a.whens.reset()
	a.ints.reset()
	a.aggs.reset()
	a.orders.reset()
	a.sets.reset()
	a.trim()
	a.bound = nil
}

// textBlock is where decoded STRING and BYTES payloads, and names, wait
// for their block: text gathers their bytes and notes says which slot
// each goes to, until place makes them one string. It is the one way a
// decode places a string, for a result frame's rows (a connection keeps
// one, frameConn.text) and for a served request (decodeArena). Its owner
// decides what it keeps: a connection keeps what its frames grew, and an
// arena trims to keptBytes when it is reset. A decode that fails leaves
// its notes behind; its owner drops the block or trims it before the
// next decode.
type textBlock struct {
	text  []byte
	notes []textNote
}

// textNote is a slot waiting for its string: a name (str) or a STRING
// or BYTES value (val, of kind), whose bytes run in text from the
// previous note's end to end.
type textNote struct {
	str  *string
	val  *types.Value
	kind types.Kind
	end  int
}

// note gathers p, the payload of a name (str) or of a value of kind
// (val), for place.
func (b *textBlock) note(str *string, val *types.Value, kind types.Kind, p []byte) {
	b.text = append(b.text, p...)
	b.notes = append(b.notes, textNote{str: str, val: val, kind: kind, end: len(b.text)})
}

// place makes the gathered payloads one string of exactly their bytes,
// points each noted slot at its substring and empties the gathering for
// the next decode. The string is never written again: a value copied out
// of a slot stays valid, and keeps at most its decode's string bytes
// alive. The notes are cleared, so the block pins no slot.
func (b *textBlock) place() {
	if b == nil || len(b.notes) == 0 {
		return
	}
	block := string(b.text)
	start := 0
	for _, n := range b.notes {
		p := block[start:n.end]
		switch {
		case n.str != nil:
			*n.str = p
		case n.kind == types.KindBytes:
			*n.val = types.NewBytesOf(p)
		default:
			*n.val = types.NewString(p)
		}
		start = n.end
	}
	clear(b.notes)
	b.notes, b.text = b.notes[:0], b.text[:0]
}

// trim empties the gathering, and lets go of its text or notes when a
// decode grew them past keptBytes.
func (b *textBlock) trim() {
	clear(b.notes)
	b.notes, b.text = b.notes[:0], b.text[:0]
	if cap(b.text) > keptBytes {
		b.text = nil
	}
	if cap(b.notes)*int(unsafe.Sizeof(textNote{})) > keptBytes {
		b.notes = nil
	}
}
