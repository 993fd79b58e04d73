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
//   - every other STRING or BYTES payload of one request is a substring
//     of one string made for that request (place), which is never
//     written again: one that is kept stays valid, and keeps the block
//     alive with it.
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

	// text gathers the request's string payloads and notes says where
	// each goes, until place makes them one string.
	text  []byte
	notes []textNote

	// bound describes the table the request names when the connection
	// has bound against it (Decoder.tableName), for Server.tableInfo.
	bound *source.TableInfo
}

// textNote is a slot waiting for its string: a name (str) or a STRING
// or BYTES constant (val, of kind), whose bytes run in text from the
// previous note's end to end.
type textNote struct {
	str  *string
	val  *types.Value
	kind types.Kind
	end  int
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
	a.endText()
	a.bound = nil
}

// endText empties the gathering of text and notes, and lets go of either
// when a request grew it past keptBytes.
func (a *decodeArena) endText() {
	clear(a.notes)
	a.notes, a.text = a.notes[:0], a.text[:0]
	if cap(a.text) > keptBytes {
		a.text = nil
	}
	if cap(a.notes)*int(unsafe.Sizeof(textNote{})) > keptBytes {
		a.notes = nil
	}
}

// note gathers b, the payload of a name (str) or of a constant of kind
// (val), for place.
func (a *decodeArena) note(str *string, val *types.Value, kind types.Kind, b []byte) {
	a.text = append(a.text, b...)
	a.notes = append(a.notes, textNote{str: str, val: val, kind: kind, end: len(a.text)})
}

// place makes the gathered payloads one string and points each noted
// slot at its substring. A request's decode calls it once, at its end.
func (a *decodeArena) place() {
	if a == nil || len(a.notes) == 0 {
		return
	}
	block := string(a.text)
	start := 0
	for _, n := range a.notes {
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
	a.endText()
}
