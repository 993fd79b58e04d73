package types

import (
	"runtime"
	"slices"
	"testing"
)

// A chunk's vectors, full, fill their allocator size classes to within
// one row, kind by kind: ChunkRows words are 2 040 B of the 2 KiB class,
// ChunkRows string headers and the 8-byte malloc header a pointer-bearing
// object carries are 4 088 B of 4 KiB, and TIME adds ChunkRows 4-byte
// nanoseconds, 1 020 B of 1 KiB. If this fails after a toolchain bump,
// re-derive ChunkRows.
func TestChunkBytes(t *testing.T) {
	for _, c := range []struct {
		kind          Kind
		perRow, class uint64
	}{
		{KindInt, 8, 2048},
		{KindFloat, 8, 2048},
		{KindBool, 8, 2048},
		{KindString, 16, 4096},
		{KindBytes, 16, 4096},
		{KindTime, 12, 2048 + 1024},
	} {
		// Whatever else the test binary allocates meanwhile only adds
		// to a delta, so the smallest of a few is the vector's.
		got := uint64(0)
		for range chunkBytesRuns {
			v := NewVector(c.kind)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v.Grow(ChunkRows)
			runtime.ReadMemStats(&after)
			vectorSink = v
			if d := after.TotalAlloc - before.TotalAlloc; got == 0 || d < got {
				got = d
			}
		}
		if used := c.perRow * ChunkRows; got != c.class || got-used > c.perRow {
			t.Errorf("%s: a vector of %d rows takes %d B of %d B, want %d B at %d B a row, within a row of it",
				c.kind, ChunkRows, used, got, c.class, c.perRow)
		}
	}
}

var vectorSink Vector // makes TestChunkBytes' vectors escape

// chunkBytesRuns is how many times TestChunkBytes measures each kind.
const chunkBytesRuns = 5

// A writer changes in place what no view taken since can hold, and a
// copy of the rest. After a view, Claim asks once for the header to be
// copied; Own copies the array of vector headers and the column it is
// handed; Append copies no values, but a NULL's column; a tombstone is
// the header's. A vector grows by doubling from 8 to exactly ChunkRows.
func TestChunkCopiesWhatAViewMayHold(t *testing.T) {
	cols := []Column{{Name: "a", Type: KindInt}, {Name: "b", Type: KindString, Nullable: true}}
	g, caps := NewChunk(cols, 0), []int(nil)
	for i := range ChunkRows {
		if g.Append(0, Row{NewInt(int64(i)), NewString("x")}); len(caps) == 0 || caps[len(caps)-1] != g.Cols[0].Cap() {
			caps = append(caps, g.Cols[0].Cap())
		}
	}
	if want := []int{8, 16, 32, 64, 128, ChunkRows}; !slices.Equal(caps, want) {
		t.Errorf("a vector grows through %v, want %v", caps, want)
	}
	c := NewChunk(cols, 0)
	for i := range 10 {
		c.Append(0, Row{NewInt(int64(i)), NewString("x")})
	}
	if c.Claim(0) {
		t.Error("Claim with no view taken asks for a copy")
	}
	view := c // the header a view holds
	if !c.Claim(1) || c.Claim(1) {
		t.Fatal("Claim after a view does not ask for one copy of the header")
	}
	c.Own(1, 0, 0, false).Set(3, NewInt(-3))
	if view.Cols[0].At(3).Int() != 3 || c.Cols[0].At(3).Int() != -3 || &view.Cols[0] == &c.Cols[0] {
		t.Errorf("Own wrote a view's column: it reads %v", view.Cols[0].At(3))
	}
	c.Append(1, Row{NewInt(500), NewString("y")})
	if view.Len() != 10 || c.Len() != 11 || &view.Cols[1].strs[0] != &c.Cols[1].strs[0] {
		t.Errorf("Append: the view holds %d rows, the writer %d; the values copied: %v",
			view.Len(), c.Len(), &view.Cols[1].strs[0] != &c.Cols[1].strs[0])
	}
	c.Append(1, Row{NewInt(501), Null})
	if &view.Cols[1].strs[0] == &c.Cols[1].strs[0] || view.Cols[1].At(9).IsNull() {
		t.Error("Append of a NULL wrote the column a view holds")
	}
	c.SetLive(7, false)
	if !view.Live(7) || c.Live(7) {
		t.Errorf("a tombstone reads %v in the view, %v in the writer's copy", !view.Live(7), !c.Live(7))
	}
}
