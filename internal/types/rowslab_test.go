package types

import (
	"fmt"
	"runtime"
	"testing"
)

func TestRowSlabRowsDoNotAlias(t *testing.T) {
	var s RowSlab
	// Past the first 64 rows, which are allocated singly, rows share
	// chunks.
	rows := make([]Row, 300)
	for i := range rows {
		rows[i] = s.Next(3)
		if len(rows[i]) != 3 || cap(rows[i]) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3 3", i, len(rows[i]), cap(rows[i]))
		}
		for j := range rows[i] {
			if !rows[i][j].IsNull() {
				t.Fatalf("row %d column %d carved as %v, want NULL", i, j, rows[i][j])
			}
			rows[i][j] = NewInt(int64(i*3 + j))
		}
	}
	for i := range rows[:len(rows)-1] {
		grown := append(rows[i], NewString("spill"))
		if got := rows[i+1][0].Int(); got != int64((i+1)*3) {
			t.Fatalf("appending to row %d changed row %d column 0 to %d", i, i+1, got)
		}
		if len(grown) != 4 || &grown[0] == &rows[i][0] {
			t.Fatalf("append to row %d did not copy", i)
		}
	}
}

func TestRowSlabRowsOutliveLaterCarvesAndTheSlab(t *testing.T) {
	s := new(RowSlab)
	var kept, saved []Row
	for i := 0; i < 200; i++ {
		r := s.Next(4)
		for j := range r {
			r[j] = NewString(fmt.Sprintf("v%d.%d", i, j))
		}
		kept, saved = append(kept, r), append(saved, r.Clone())
	}
	for i := 0; i < 10000; i++ {
		r := s.Next(1 + i%7)
		for j := range r {
			r[j] = NewInt(-1)
		}
	}
	check := func(when string) {
		t.Helper()
		for i := range kept {
			if !kept[i].Equal(saved[i]) {
				t.Fatalf("%s: row %d = %v, want %v", when, i, kept[i], saved[i])
			}
		}
	}
	check("after 10 000 further carves")
	s = nil
	runtime.GC()
	check("after the slab is dropped")
}

func TestRowSlabUndo(t *testing.T) {
	var s RowSlab
	for i := 0; i < 200; i++ {
		keep := s.Next(2)
		keep[0], keep[1] = NewInt(int64(i)), NewString("kept")

		r := s.Next(3)
		r[0], r[1], r[2] = NewInt(7), NewString("x"), NewBool(true)
		first := &r[0]
		s.Undo(r)
		again := s.Next(3)
		if &again[0] != first {
			t.Fatalf("round %d: Next after Undo did not reuse the row's space", i)
		}
		for j, v := range again {
			if !v.IsNull() {
				t.Fatalf("round %d: column %d = %v after Undo, want NULL", i, j, v)
			}
		}
		if keep[0].Int() != int64(i) || keep[1].Str() != "kept" {
			t.Fatalf("round %d: Undo disturbed the row before it: %v", i, keep)
		}
	}
	// A different width after an Undo, and an Undo of a row that began a
	// new chunk.
	r := s.Next(5)
	s.Undo(r)
	if got := s.Next(2); len(got) != 2 || cap(got) != 2 || !got[0].IsNull() || !got[1].IsNull() {
		t.Fatalf("Next(2) after Undo of a 5-wide row = %v (cap %d)", got, cap(got))
	}
}

func TestRowSlabUndoOfAnOlderRowPanics(t *testing.T) {
	var s RowSlab
	for i := 0; i < 100; i++ {
		s.Next(2)
	}
	older := s.Next(2)
	s.Next(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Undo of a row that is not the last carve must panic")
		}
	}()
	s.Undo(older)
}

func TestRowSlabWidths(t *testing.T) {
	var s RowSlab
	empty := s.Next(0)
	if empty == nil || len(empty) != 0 {
		t.Fatalf("Next(0) = %#v, want an empty non-nil row", empty)
	}
	s.Undo(empty)
	for i, w := range []int{3, 0, 1, 40, 2, 2, 0, 1200, 3} {
		r := s.Next(w)
		if len(r) != w || cap(r) != w {
			t.Fatalf("carve %d: len %d cap %d, want %d", i, len(r), cap(r), w)
		}
		for j := range r {
			if !r[j].IsNull() {
				t.Fatalf("carve %d: column %d = %v, want NULL", i, j, r[j])
			}
			r[j] = NewInt(int64(i))
		}
	}
}

// lent is the hint of a consumer that keeps no row (source.Lent, which
// this package cannot import): any negative count.
const lent = -1

// A lending slab hands out one row's storage again and again: zeroed
// every time, regrown only for a wider row, Undo a no-op.
func TestRowSlabLend(t *testing.T) {
	var s RowSlab
	s.Use(lent)
	first := s.Next(3)
	for i := 0; i < 1000; i++ {
		r := s.Next(3)
		if len(r) != 3 || cap(r) != 3 || &r[0] != &first[0] {
			t.Fatalf("row %d: len %d cap %d, same storage %v; want 3 3 true", i, len(r), cap(r), &r[0] == &first[0])
		}
		for j := range r {
			if !r[j].IsNull() {
				t.Fatalf("row %d column %d lent as %v, want NULL", i, j, r[j])
			}
			r[j] = NewString("left behind")
		}
		if i%3 == 0 {
			s.Undo(r) // must neither panic nor move anything
		}
	}
	narrow := s.Next(2)
	if len(narrow) != 2 || cap(narrow) != 2 || &narrow[0] != &first[0] || !narrow[0].IsNull() || !narrow[1].IsNull() {
		t.Fatalf("a narrower row = %v (cap %d), want two NULLs over the same storage", narrow, cap(narrow))
	}
	wide := s.Next(5)
	if len(wide) != 5 || cap(wide) != 5 || &wide[0] == &first[0] {
		t.Fatalf("a wider row: len %d cap %d, regrown %v", len(wide), cap(wide), &wide[0] != &first[0])
	}
	for j := range wide {
		if !wide[j].IsNull() {
			t.Fatalf("regrown row column %d = %v, want NULL", j, wide[j])
		}
	}
	if again := s.Next(5); &again[0] != &wide[0] {
		t.Fatal("the regrown row was not lent again")
	}
	if empty := s.Next(0); empty == nil || len(empty) != 0 {
		t.Fatalf("Next(0) = %#v, want an empty non-nil row", empty)
	}

	if got := testing.AllocsPerRun(5, func() {
		var s RowSlab
		s.Use(lent)
		for i := 0; i < 1000; i++ {
			sinkRow = s.Next(4)
		}
	}); got != 1 {
		t.Errorf("1 000 lent rows of one width: %v allocations, want 1", got)
	}
}

// Rows carved before the slab lends were the consumer's to keep, and
// stay so.
func TestRowSlabLendLeavesKeptRowsAlone(t *testing.T) {
	var s RowSlab
	var kept []Row
	for i := 0; i < 100; i++ {
		r := s.Next(2)
		r[0], r[1] = NewInt(int64(i)), NewString("kept")
		kept = append(kept, r)
	}
	s.Use(lent)
	for i := 0; i < 100; i++ {
		r := s.Next(2)
		r[0], r[1] = NewInt(-1), NewString("lent")
	}
	for i, r := range kept {
		if r[0].Int() != int64(i) || r[1].Str() != "kept" {
			t.Fatalf("kept row %d = %v after lending", i, r)
		}
	}
}

var sinkRows []Row

// allocatedBytes reports the bytes one run of f allocates: the least of
// five runs, since whatever else the runtime allocates meanwhile only
// adds.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRowSlabBytes pins what the chunk sizes in slabRows are chosen
// for: a short, a middling and a long stream carved from a slab each
// allocate within 3% of the bytes that one make per row does (the worst
// length, one row into the first full chunk, pays under 5%). A stream of
// 100 to 1 000 rows pays more — its chunks hold few rows, and the part of
// a row that does not fit the size class, plus the malloc header, is a
// large share of each — and is held to what it pays, rounded up to a half
// percent, so that it gets no worse. It fails if a Go release moves the
// size classes or the malloc header the sizes are cut to.
func TestRowSlabBytes(t *testing.T) {
	type stream struct {
		w, n int
		over float64 // the most it may allocate over one make per row, in %
	}
	var streams []stream
	for _, w := range []int{4, 8} {
		for _, n := range []int{1, 10, 50, 4000, 20000} {
			streams = append(streams, stream{w, n, 3})
		}
	}
	streams = append(streams,
		stream{4, 100, 2.5}, stream{4, 300, 4.5}, stream{4, 1000, 6},
		stream{8, 100, 3}, stream{8, 300, 8.5}, stream{8, 1000, 5},
		stream{16, 100, 8.5}, stream{16, 300, 11}, stream{16, 1000, 7})
	for _, c := range streams {
		w, n := c.w, c.n
		sinkRows = make([]Row, n)
		perRow := func() {
			for i := range sinkRows {
				sinkRows[i] = make(Row, w)
			}
		}
		carved := func() {
			var s RowSlab
			for i := range sinkRows {
				sinkRows[i] = s.Next(w)
			}
		}
		want, got := allocatedBytes(perRow), allocatedBytes(carved)
		if over := 100 * (float64(got)/float64(want) - 1); over > c.over || over < -3 {
			t.Errorf("%d rows of width %d: slab allocates %d B, one make per row %d B (%+.1f%%, want at most %+.1f%%)", n, w, got, want, over, c.over)
		}
		if n <= 2*slabTailShare && got != want {
			t.Errorf("%d rows of width %d: slab allocates %d B, want exactly the %d B of one make per row", n, w, got, want)
		}
		if objects := testing.AllocsPerRun(5, carved); n >= 4000 && objects > float64(n)/3 {
			t.Errorf("%d rows of width %d: %v allocations, want under a third of one per row", n, w, objects)
		}
	}
	sinkRows = nil
	t.Run("reserved", testReservedBlock)
	t.Run("over-estimate", testReserveCap)
}

// testReservedBlock: n rows reserved (Use) are one object, of the
// bytes one make of n rows' values allocates — the allocator's rounding
// of n×w×24 B, to a size class or to whole pages — each row cut with
// cap == len. Past the block the tail rule resumes with the block's rows
// counted, Undo works inside it, and a lending slab ignores it.
func testReservedBlock(t *testing.T) {
	for _, w := range []int{1, 3, 4, 8, 16} {
		for _, n := range []int{1, 10, 100, 1000, 4000} {
			if n*w*valueBytes > MaxReserveBytes {
				continue // testReserveCap's
			}
			sinkRows = make([]Row, n)
			carved := func() {
				var s RowSlab
				s.Use(n)
				for i := range sinkRows {
					sinkRows[i] = s.Next(w)
				}
			}
			if objects := testing.AllocsPerRun(5, carved); objects != 1 {
				t.Errorf("%d reserved rows of width %d: %v allocations, want 1", n, w, objects)
			}
			block := allocatedBytes(func() { sinkRow = make(Row, n*w) })
			if got := allocatedBytes(carved); got != block || got < uint64(n*w*valueBytes) {
				t.Errorf("%d reserved rows of width %d: %d B, want the %d B one make of %d values allocates", n, w, got, block, n*w)
			}
			var s RowSlab
			s.Use(n)
			for i := range sinkRows {
				r := s.Next(w)
				if len(r) != w || cap(r) != w {
					t.Fatalf("%d reserved rows of width %d: row %d has len %d cap %d", n, w, i, len(r), cap(r))
				}
				if i%7 == 3 { // taken back and carved again, in place
					s.Undo(r)
					if again := s.Next(w); &again[0] != &r[0] {
						t.Fatalf("%d reserved rows of width %d: Next after Undo of row %d moved", n, w, i)
					}
				}
			}
			// The block's rounding may hold a few rows more; the chunk
			// after it is the tail rule's.
			for block := &s.chunk[0]; &s.chunk[0] == block; {
				s.Next(w)
			}
			if want := len(newChunk(w, slabRows(s.rows-1, w))); len(s.chunk) != want || s.rows <= n {
				t.Errorf("%d reserved rows of width %d: the chunk cut after %d rows holds %d values, want the tail rule's %d", n, w, s.rows-1, len(s.chunk), want)
			}
		}
	}
	undone := func() {
		var s RowSlab
		s.Use(100)
		for i := range 100 {
			s.Undo(s.Next(3))
			sinkRows[i] = s.Next(3)
		}
	}
	if objects := testing.AllocsPerRun(5, undone); objects != 1 {
		t.Errorf("100 reserved rows, each carved after an Undo: %v allocations, want 1", objects)
	}
	for _, order := range []string{"Lent, 1000", "1000, Lent"} {
		carve := func() {
			var s RowSlab
			if order == "Lent, 1000" {
				s.Use(lent)
				s.Use(1000)
			} else {
				s.Use(1000)
				s.Use(lent)
			}
			for range 1000 {
				sinkRow = s.Next(4)
			}
		}
		if got := allocatedBytes(carve); got != uint64(4*valueBytes) {
			t.Errorf("%s, 1 000 lent rows of width 4: %d B, want one row's %d B", order, got, 4*valueBytes)
		}
	}
	if got := allocatedBytes(func() { var s RowSlab; s.Use(4000) }); got != 0 {
		t.Errorf("a reservation with no row carved allocates %d B, want 0", got)
	}
	sinkRows = nil
}

// testReserveCap: an estimate ten times the rows a stream carves pays for
// the block it asked for, and never more than MaxReserveBytes. A stream
// longer than the capped block, or than a short estimate, goes on by the
// tail rule, every row intact.
func testReserveCap(t *testing.T) {
	for _, c := range []struct{ n, w int }{{100, 4}, {1000, 4}, {1000, 16}, {4000, 8}} {
		sinkRows = make([]Row, c.n)
		carved := func() {
			var s RowSlab
			s.Use(10 * c.n)
			for i := range sinkRows {
				sinkRows[i] = s.Next(c.w)
			}
		}
		rows := min(10*c.n, MaxReserveBytes/(c.w*valueBytes))
		want := allocatedBytes(func() { sinkRow = make(Row, rows*c.w) })
		got := allocatedBytes(carved)
		if got != want || got > MaxReserveBytes {
			t.Errorf("%d rows of width %d reserved as %d: %d B, want the %d B block of %d rows, at most %d B", c.n, c.w, 10*c.n, got, want, rows, MaxReserveBytes)
		}
	}
	var s RowSlab
	s.Use(1 << 20)
	var kept []Row
	for i := range 5000 {
		r := s.Next(16)
		r[0] = NewInt(int64(i))
		kept = append(kept, r)
	}
	short := RowSlab{}
	short.Use(19)
	for i := range 80 {
		r := short.Next(3)
		r[0], r[1], r[2] = NewInt(int64(i)), NewString("short"), NewInt(int64(-i))
		kept = append(kept, r)
	}
	for i, r := range kept {
		if j := i % 5000; i >= 5000 {
			j = i - 5000
			if r[0].Int() != int64(j) || r[1].Str() != "short" || r[2].Int() != int64(-j) {
				t.Fatalf("row %d of 80 reserved as 19 = %v", j, r)
			}
		} else if r[0].Int() != int64(j) {
			t.Fatalf("row %d of 5 000 reserved as 1M = %v", j, r)
		}
	}
	sinkRows = nil
}

// BenchmarkRowSlab carves 4 000 4-column rows, a shipped range's worth;
// BenchmarkRowMake is the make per row it replaces.
func BenchmarkRowSlab(b *testing.B) {
	rows := make([]Row, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s RowSlab
		for j := range rows {
			rows[j] = s.Next(4)
		}
	}
	sinkRow = rows[len(rows)-1]
}

func BenchmarkRowMake(b *testing.B) {
	rows := make([]Row, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = make(Row, 4)
		}
	}
	sinkRow = rows[len(rows)-1]
}
