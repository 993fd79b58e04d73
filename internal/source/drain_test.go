package source

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"gis/internal/types"
)

// countedRows is n one-column rows holding their position.
func countedRows(n int) []types.Row {
	rows := make([]types.Row, n)
	flat := make([]types.Value, n)
	for i := range rows {
		flat[i] = types.NewInt(int64(i))
		rows[i] = flat[i : i+1 : i+1]
	}
	return rows
}

// thenFails yields rows and then err.
type thenFails struct {
	RowIter
	err error
}

func (f *thenFails) Next() (types.Row, error) {
	r, err := f.RowIter.Next()
	if err == io.EOF {
		err = f.err
	}
	return r, err
}

// Drain returns every row in order on either side of the size where it
// stops growing by append and of every chunk it then sets aside, and
// what it has when the stream fails.
func TestDrain(t *testing.T) {
	for _, n := range []int{0, 1, 2, drainChunk - 1, drainChunk, drainChunk + 1, 1365, 1366, 2730, 2731, 5000, 20000} {
		rows := countedRows(n)
		got, err := Drain(SliceIter(rows))
		if err != nil || len(got) != n {
			t.Fatalf("%d rows: got %d, %v", n, len(got), err)
		}
		for i, r := range got {
			if r[0].Int() != int64(i) {
				t.Fatalf("%d rows: row %d = %v", n, i, r)
			}
		}
		if n > 0 && cap(got) > n+n/2 {
			t.Errorf("%d rows: result has room for %d", n, cap(got))
		}
		boom := errors.New("boom")
		got, err = Drain(&thenFails{SliceIter(rows), boom})
		if err != boom || len(got) != n || (n > 0 && got[n-1][0].Int() != int64(n-1)) {
			t.Fatalf("%d rows, then an error: got %d rows, %v", n, len(got), err)
		}
	}
}

// allocated reports the objects and bytes one run of f allocates: the
// least of five runs, since whatever else the runtime allocates
// meanwhile only adds.
func allocated(f func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

var sinkDrained []types.Row

// A short result is what append builds, allocation for allocation (a
// point lookup drains one row); a long one costs the rows it was read
// into and one exact copy, not the copies doubling leaves behind.
func TestDrainAllocations(t *testing.T) {
	byAppend := func(rows []types.Row) func() {
		return func() {
			it := SliceIter(rows)
			var out []types.Row
			for {
				r, err := it.Next()
				if err != nil {
					break
				}
				out = append(out, r)
			}
			sinkDrained = out
		}
	}
	drain := func(rows []types.Row) func() {
		return func() { sinkDrained, _ = Drain(SliceIter(rows)) }
	}
	for _, n := range []int{1, 10, 300, drainChunk} {
		rows := countedRows(n)
		wantObjects, wantBytes := allocated(byAppend(rows))
		objects, bytes := allocated(drain(rows))
		if objects != wantObjects || bytes != wantBytes {
			t.Errorf("%d rows: %d allocations, %d B; append alone makes %d, %d B", n, objects, bytes, wantObjects, wantBytes)
		}
	}
	const n = 8000
	rows := countedRows(n)
	_, appended := allocated(byAppend(rows))
	_, bytes := allocated(drain(rows))
	header := uint64(24)
	if bytes > appended*3/4 || bytes > (2*n+3*drainChunk)*header {
		t.Errorf("%d rows: Drain allocates %d B, append alone %d B; want under three quarters of that and about two headers a row", n, bytes, appended)
	}
	sinkDrained = nil
}

// lendSpy records that it was asked to lend.
type lendSpy struct {
	RowIter
	asked bool
}

func (l *lendSpy) Lend() { l.asked = true }

// Lend reaches an iterator that can lend and is harmless on one that
// cannot; Drain keeps its rows and never asks.
func TestLend(t *testing.T) {
	spy := &lendSpy{RowIter: SliceIter(countedRows(3))}
	if _, err := Drain(spy); err != nil || spy.asked {
		t.Fatalf("Drain asked its input to lend (%v), err %v", spy.asked, err)
	}
	Lend(spy)
	if !spy.asked {
		t.Error("Lend did not reach a Lender")
	}
	Lend(SliceIter(nil)) // not a Lender: nothing to do
}

// BenchmarkDrain drains a point lookup's, a fan-out branch's and a
// shipped range's worth of rows. Read B/op and allocs/op.
func BenchmarkDrain(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		rows := countedRows(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Drain(SliceIter(rows))
				if err != nil || len(out) != n {
					b.Fatalf("%d rows, %v", len(out), err)
				}
			}
		})
	}
}
