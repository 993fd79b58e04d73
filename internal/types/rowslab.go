package types

import "unsafe"

// The allocator facts RowSlab's chunk sizes are cut to (runtime/malloc.go
// and sizeclasses.go; TestRowSlabBytes pins their consequence). Every
// multiple of 32 B up to 512 B is its own size class. A pointer-bearing
// object over 512 B carries an 8-byte malloc header and the classes
// above it lie up to an eighth apart, so a chunk of n rows there wastes
// 3–19% — unless it is cut to end a header short of a power of two,
// which always is a class, and is long enough that the one row and the
// header it leaves unused are under 2% of it. 32 KiB is the largest
// class; one byte more is a page-rounded large object.
const (
	valueBytes     = int(unsafe.Sizeof(Value{}))
	mallocHeader   = 8
	maxHeaderless  = 512
	maxSmallObject = 32 << 10
	// slabFullRows is how many rows the power-of-two class of a full
	// chunk has room for before the header is taken out of it.
	slabFullRows = 64
	// slabTailShare bounds what a stream that ends early has paid for
	// and not used: a chunk holds at most 1/32 of the rows carved before
	// it. It also means the first 64 rows of any stream are allocated
	// one by one, exactly as make(Row, w) would.
	slabTailShare = 32
)

// RowSlab hands out rows for an iterator that would otherwise make one
// row per Next. The zero value is ready, and keeps.
//
// Keeping (the default): rows are carved from shared chunks and never
// alias — each is cut with a full slice expression, so appending to one
// copies instead of reaching its neighbour. Chunks are never reused, so
// a row the consumer retains (a hash-join build side, Drain, a sort, a
// top-k heap) stays valid for as long as it is held and pins only its
// own chunk.
//
// Lending (after Lend): every Next hands out the same storage again,
// zeroed, so a stream of one width allocates one row however long it
// is. It is for a producer whose consumer is done with a row before it
// asks for the next (DESIGN.md "Who keeps a row").
type RowSlab struct {
	chunk []Value
	off   int // chunk[off:] is not handed out yet
	rows  int // rows carved so far
	lent  bool
}

// Lend switches the slab to lending. Rows already carved stay valid:
// the chunk they were cut from is not handed out again.
func (s *RowSlab) Lend() {
	if !s.lent {
		s.lent, s.chunk, s.off = true, nil, 0
	}
}

// noColumns is the zero-width row: empty, not nil, as make(Row, 0) is.
var noColumns = Row{}

// Next returns a zeroed row of width w with cap(row) == len(row).
func (s *RowSlab) Next(w int) Row {
	if w == 0 {
		return noColumns
	}
	if s.lent {
		if w > len(s.chunk) {
			s.chunk = make([]Value, w)
		} else {
			clear(s.chunk[:w])
		}
		return s.chunk[:w:w]
	}
	if s.off+w > len(s.chunk) {
		// One chunk per up to 127 rows, not one per row.
		s.chunk, s.off = make([]Value, w*slabRows(s.rows, w)), 0
	}
	row := s.chunk[s.off : s.off+w : s.off+w]
	s.off += w
	s.rows++
	return row
}

// slabRows sizes the next chunk of a stream that has carved rows rows
// of width w: the tail share of them, in one of the two shapes that
// waste nothing to size-class rounding. A headerless chunk (2–16 rows,
// fewer the wider they are) serves until the share reaches a full chunk
// (63–127 rows of up to 16 columns, what fits 32 KiB of wider ones; at
// about 2 000–4 000 rows carved).
func slabRows(rows, w int) int {
	rowBytes := w * valueBytes
	n := rows / slabTailShare
	if n*rowBytes > maxHeaderless {
		class := 2 * maxHeaderless
		for class < slabFullRows*rowBytes && class < maxSmallObject {
			class *= 2
		}
		if full := (class - mallocHeader) / rowBytes; n >= full && full > 0 {
			return full
		}
		n = maxHeaderless / rowBytes
	}
	return max(n, 1)
}

// Undo takes back row, which must be the row the last Next returned and
// must not have been handed on: the next Next reuses its space, zeroed.
// A lending slab does that anyway.
func (s *RowSlab) Undo(row Row) {
	if len(row) == 0 || s.lent {
		return
	}
	if s.off < len(row) || &s.chunk[s.off-len(row)] != &row[0] {
		panic("types: RowSlab.Undo of a row that is not the last one carved")
	}
	clear(row)
	s.off -= len(row)
	s.rows--
}
