package types

import "unsafe"

// RowSlab's chunk sizes (DESIGN.md "Row slabs"; TestRowSlabBytes pins
// their consequence). A chunk is asked of the allocator by its rows and
// takes whatever its size class has room for, so rounding wastes at most
// the part of a row that does not fit. 32 KiB, malloc header included,
// is the largest class; one byte more is a page-rounded large object.
const (
	valueBytes     = int(unsafe.Sizeof(Value{}))
	mallocHeader   = 8
	maxSmallObject = 32 << 10
	// slabFullRows is the most rows a chunk is asked for, so a stream
	// of thousands of rows pays for at most a few dozen it does not use.
	slabFullRows = 48
	// slabTailShare bounds what a stream that ends early has paid for
	// and not used: a chunk holds about 1/32 of the rows carved before
	// it. It also means the first 64 rows of a stream nobody sized are
	// allocated one by one, exactly as make(Row, w) would.
	slabTailShare = 32
	// MaxReserveBytes caps the block a reservation asks for (Use):
	// an over-estimate leaves at most this much of it unused.
	MaxReserveBytes = 1 << 20
)

// RowSlab hands out rows for an iterator that would otherwise make one
// row per Next. The zero value is ready, and keeps.
//
// Keeping (the default): rows are carved from shared chunks and never
// alias — each is cut with a full slice expression, so appending to one
// copies instead of reaching its neighbour. Chunks are never reused, so
// a row the consumer retains (a hash-join build side, Drain, a sort, a
// top-k heap) stays valid for as long as it is held and pins only its
// own chunk. A consumer that knows how many rows it will keep says so
// (Use), and they are carved from one chunk of that size.
//
// Lending (Use of a negative n): every Next hands out the same storage
// again, zeroed, so a stream of one width allocates one row however
// long it is. It is for a producer whose consumer is done with a row
// before it asks for the next (DESIGN.md "Who keeps a row").
type RowSlab struct {
	chunk    []Value
	off      int // chunk[off:] is not handed out yet
	rows     int // rows carved so far
	reserved int // rows the next chunk holds at least (Use)
	lent     bool
}

// Use is the hint source.Use passes on to the slab of an iterator that
// builds its rows. A negative n (source.Lent) switches the slab to
// lending; rows already carved stay valid, as the chunk they were cut
// from is not handed out again. n > 0 says the next n rows carved are
// kept: the next chunk the slab cuts, when the first of them is carved,
// is one block of n rows of that row's width, at most MaxReserveBytes,
// whatever the tail rule would have asked. Past the block the tail rule
// resumes, counting its rows as carved. A stream that ends before
// carving a row allocates nothing; one that ends short of n leaves the
// rest of the block unused, and a row kept from the block keeps all of
// it. A lending slab ignores a count, and 0 says nothing.
func (s *RowSlab) Use(n int) {
	switch {
	case s.lent:
	case n < 0:
		s.lent, s.chunk, s.off, s.reserved = true, nil, 0, 0
	case n > 0:
		s.reserved = n
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
		s.chunk, s.off = newChunk(w, max(slabRows(s.rows, w), min(s.reserved, MaxReserveBytes/(w*valueBytes)))), 0
		s.reserved = 0
	}
	row := s.chunk[s.off : s.off+w : s.off+w]
	s.off += w
	s.rows++
	return row
}

// slabRows sizes the next chunk of a stream that has carved rows rows
// of width w: the tail share of them, at least one row, and at most a
// full chunk's or what fits the largest size class.
func slabRows(rows, w int) int {
	return max(1, min(rows/slabTailShare, slabFullRows, (maxSmallObject-mallocHeader)/(w*valueBytes)))
}

// zeros is what a chunk is appended from. append, like slices.Grow,
// rounds the chunk's capacity up to its size class; unlike slices.Grow,
// it allocates nothing else when the race detector is on.
var zeros [(maxSmallObject - mallocHeader) / valueBytes]Value

// newChunk returns room for n rows of width w, and for as many more as
// the size class the allocator rounds it up to holds. Past the largest
// class — a reserved block, or one row wider than the class — it is
// exactly n rows: the allocator rounds it up to whole pages.
func newChunk(w, n int) []Value {
	if w*n > len(zeros) {
		return make([]Value, w*n)
	}
	c := append([]Value(nil), zeros[:w*n]...)
	return c[:cap(c)-cap(c)%w]
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
