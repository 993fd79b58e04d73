package types

import "slices"

// ChunkRows is how many rows a chunk holds: a full vector fills its
// allocator size class to within one row (TestChunkBytes) — 2 040 B of
// words in 2 KiB, 4 080 B of strings and the 8 B malloc header in 4 KiB.
const ChunkRows = 255

// Chunk is up to ChunkRows rows as one Vector a column, and a bitmap of
// tombstones (DESIGN.md "A chunk of rows"): a relstore table's chunk, or
// a kvstore leaf, whose rows are all live.
//
// Views read a chunk while one writer changes it, in place where no view
// taken since a part was made or copied can hold it, else in a copy of
// the part: the header, the array of vector headers, a column's values.
type Chunk struct {
	Cols []Vector
	dead [(ChunkRows + 63) / 64]uint64
	// stamps[0] is the header's, stamps[1] the vector headers',
	// stamps[2+j] column j's values'; a copy of the header shares them.
	stamps []uint64
}

// NewChunk returns a chunk of no rows and a vector of each column's kind,
// made by a writer after views views were taken.
func NewChunk(cols []Column, views uint64) Chunk {
	c := Chunk{Cols: make([]Vector, len(cols)), stamps: make([]uint64, 2+len(cols))}
	for j, col := range cols {
		c.Cols[j] = NewVector(col.Type)
	}
	for i := range c.stamps {
		c.stamps[i] = views
	}
	return c
}

// Len returns how many rows a chunk of one column or more holds,
// tombstones included.
func (c *Chunk) Len() int { return c.Cols[0].Len() }

// Live reports whether row k is not a tombstone.
func (c *Chunk) Live(k int) bool { return c.dead[k>>6]&(1<<(k&63)) == 0 }

// SetLive makes row k live or a tombstone. The writer owns the header.
func (c *Chunk) SetLive(k int, live bool) {
	if c.Live(k) != live {
		c.dead[k>>6] ^= 1 << (k & 63)
	}
}

// Decode puts row k's first len(row) values into row, and returns it.
func (c *Chunk) Decode(k int, row Row) Row {
	for j := range row {
		row[j] = c.Cols[j].At(k)
	}
	return row
}

// Emit returns row k's values of columns cols, of every column when cols
// is nil: decoded into lent when it is not nil, else into a row of slab.
func (c *Chunk) Emit(k int, cols []int, lent Row, slab *RowSlab) Row {
	if cols == nil {
		if lent == nil {
			lent = slab.Next(len(c.Cols))
		}
		return c.Decode(k, lent)
	}
	if lent == nil {
		lent = slab.Next(len(cols))
	}
	for j, col := range cols {
		lent[j] = c.Cols[col].At(k)
	}
	return lent
}

// Claim reports whether a writer about to change c must change a copy of
// its header, put in c's place, because a view may hold it. Either way
// the header is the writer's from then on; a copy shares the vectors.
func (c *Chunk) Claim(views uint64) bool {
	viewed := c.stamps[0] != views
	c.stamps[0] = views
	return viewed
}

// Own returns column j of c, whose header the writer owns (Claim), for
// it to change in place with room for n more values. What a view may
// hold is copied first: the array of vector headers, then the column's
// values, unless the write only appends past every view's end. A vector
// grows to twice its rows, at least 8 and at most ChunkRows.
func (c *Chunk) Own(views uint64, j, n int, appended bool) *Vector {
	if c.stamps[1] != views {
		c.Cols, c.stamps[1] = slices.Clone(c.Cols), views
	}
	v := &c.Cols[j]
	if !appended && c.stamps[2+j] != views {
		*v, c.stamps[2+j] = v.Clone(), views
	}
	if need := v.Len() + n; need > v.Cap() {
		v.Grow(min(max(need, 2*v.Len(), 8), ChunkRows) - v.Len())
	}
	return v
}

// Append adds row, whose values are of the columns' kinds, after the
// last row. The writer owns the header (Claim).
func (c *Chunk) Append(views uint64, row Row) {
	for j, x := range row {
		// A NULL's bit may share a word with a viewed row's.
		c.Own(views, j, 1, !x.IsNull()).Append(x)
	}
}
