package wire

import (
	"fmt"
	"io"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// BenchmarkDecodeFrame256 decodes one full msgRows frame of four-column
// rows, one column a string, as the client does per frame of a shipped
// result: over the connection's string scratch, into a reused slot array.
func BenchmarkDecodeFrame256(b *testing.B) {
	rows := make([]types.Row, rowBatchSize)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i) / 3), types.NewString(fmt.Sprintf("region-%d", i%8))}
	}
	frame := frameOf(rows)
	var batch []types.Row
	var strs stringScratch
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		d := Decoder{buf: frame, strs: &strs}
		if batch, _, err = d.rowBatch(batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRowsFrameAllocsDoNotGrowPerRow ships n and then 2n rows the way a
// result stream does — the server's reused Encoder cut into msgRows
// frames of rowBatchSize, the client's rowBatch into a reused slot array
// over one string scratch, as a connection keeps — and requires the extra
// n rows to cost at most n/32 more allocations: a frame's header,
// decoder, slab and string block, never one per row or per string.
func TestRowsFrameAllocsDoNotGrowPerRow(t *testing.T) {
	const n = 4096
	rows := make([]types.Row, 2*n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i) / 3), types.NewBool(i%2 == 0), types.NewString(fmt.Sprintf("region-%d", i%8))}
	}
	ship := func(n int) {
		var e Encoder
		var batch []types.Row
		var strs stringScratch
		for lo := 0; lo < n; lo += rowBatchSize {
			e.Reset()
			mark := e.beginRows()
			for _, r := range rows[lo : lo+rowBatchSize] {
				e.Row(r)
			}
			var err error
			d := &Decoder{buf: e.endRows(mark, rowBatchSize), strs: &strs}
			batch, _, err = d.rowBatch(batch, nil)
			if err != nil || len(batch) != rowBatchSize || !batch[1].Equal(rows[lo+1]) {
				t.Fatalf("frame at %d: %d rows, %v", lo, len(batch), err)
			}
		}
	}
	at := func(n int) float64 { return testing.AllocsPerRun(5, func() { ship(n) }) }
	slope := at(2*n) - at(n)
	t.Logf("msgRows encode→decode: %v more allocations for %d more rows", slope, n)
	if slope > n/32 {
		t.Errorf("msgRows encode→decode allocates per row: %v more allocations for %d more rows (bound %d)", slope, n, n/32)
	}
}

// BenchmarkStreamRange ships a projected range of 4 000 rows (sixteen
// frames) from a relstore through a server and a client on loopback, to
// a consumer that keeps the rows and to one that is lent them: two
// fixed-width columns, and the same with the STRING column cat beside
// them. Both ends run in this process, so B/op and allocs/op are the
// statement's whole bill: the store's snapshot, the server's encoder, the
// client's frame slabs and string blocks. The server lends from the store
// either way.
func BenchmarkStreamRange(b *testing.B) {
	const n = 4000
	_, cl := startRelServer(b, n+1000)
	for _, shape := range []struct {
		name string
		cols []int
	}{{"", []int{2, 0}}, {"cat/", []int{2, 0, 1}}} {
		q := &source.Query{Table: "items", Columns: shape.cols, Limit: -1,
			Filter: expr.NewBinary(expr.OpLt, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(n)))}
		for _, lent := range []bool{false, true} {
			name := shape.name + "kept"
			if lent {
				name = shape.name + "lent"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					it, err := cl.Execute(ctx, q)
					if err != nil {
						b.Fatal(err)
					}
					if lent {
						source.Lend(it)
					}
					rows := 0
					for ; err == nil; rows++ {
						_, err = it.Next()
					}
					if err != io.EOF || rows-1 != n {
						b.Fatalf("%d rows, %v", rows-1, err)
					}
					it.Close()
				}
			})
		}
	}
}
