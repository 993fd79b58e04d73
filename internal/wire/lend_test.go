package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// raggedSource streams n rows carved from a types.RowSlab, which lends
// when asked. Row i is (i, "r<i mod 7>", i/2) and, for every i in wide,
// as many columns more, NULL and i in turn: no store sends rows of unequal
// width, the format allows them, and a frame decoded over the slab of
// the one before must make room for them.
type raggedSource struct {
	n    int
	wide map[int]int
	// lent counts the streams that were asked to lend.
	lent chan struct{}
}

func (s *raggedSource) Name() string                             { return "ragged" }
func (s *raggedSource) Tables(context.Context) ([]string, error) { return []string{"t"}, nil }
func (s *raggedSource) Capabilities() source.Capabilities        { return source.Capabilities{} }
func (s *raggedSource) TableInfo(context.Context, string) (*source.TableInfo, error) {
	return &source.TableInfo{Schema: types.NewSchema(types.Column{Name: "id", Type: types.KindInt}), RowCount: int64(s.n)}, nil
}
func (s *raggedSource) Execute(context.Context, *source.Query) (source.RowIter, error) {
	return &raggedIter{src: s}, nil
}

// row fills dst, which is as wide as row i is, and returns it.
func (s *raggedSource) row(dst types.Row, i int) types.Row {
	dst[0], dst[1], dst[2] = types.NewInt(int64(i)), types.NewString("r"+string(rune('0'+i%7))), types.NewFloat(float64(i)/2)
	// Every other extra column stays NULL, as carved; which ones
	// alternates, so a lent row that was not zeroed shows.
	for j := 3 + i%2; j < len(dst); j += 2 {
		dst[j] = types.NewInt(int64(i))
	}
	return dst
}

type raggedIter struct {
	src  *raggedSource
	slab types.RowSlab
	i    int
}

func (it *raggedIter) Lend() {
	it.slab.Lend()
	it.src.lent <- struct{}{}
}

func (it *raggedIter) Next() (types.Row, error) {
	if it.i == it.src.n {
		return nil, io.EOF
	}
	it.i++
	return it.src.row(it.slab.Next(3+it.src.wide[it.i-1]), it.i-1), nil
}

func (it *raggedIter) Close() error { return nil }

// A stream of four frames with rows wider than the first in the first,
// the third and the last of them reads the same whether the client
// keeps its rows (every frame its own slab) or is lent them (every frame
// decoded over the slab before), and the server, which encodes a row
// before it asks for the next, lends from its source either way.
func TestLentStreamEqualsKept(t *testing.T) {
	const n = 3*rowBatchSize + 40
	src := &raggedSource{n: n, lent: make(chan struct{}, 2),
		wide: map[int]int{7: 2, 2*rowBatchSize + 1: 6, 2*rowBatchSize + 2: 6, 3*rowBatchSize + 39: 12}}
	srv, err := Serve(ctx, "127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	kept, err := cl.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := source.DrainOwned(kept)
	if err != nil || len(want) != n {
		t.Fatalf("kept stream: %d rows, %v", len(want), err)
	}
	for i, r := range want {
		if exp := src.row(make(types.Row, 3+src.wide[i]), i); !slices.Equal(r, exp) {
			t.Fatalf("kept stream: row %d = %v, want %v", i, r, exp)
		}
	}

	lent, err := cl.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	source.Lend(lent)
	got, err := source.DrainCopies(lent)
	if err != nil || len(got) != n {
		t.Fatalf("lent stream: %d rows, %v", len(got), err)
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("lent stream: row %d = %v, kept stream has %v", i, got[i], want[i])
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-src.lent:
		case <-time.After(5 * time.Second):
			t.Fatalf("the server asked %d of 2 streams to lend", i)
		}
	}
}

// The same over a relstore: a projected range of three frames and a
// bit, which the store projects a row at a time for the server, kept and
// lent at the client.
func TestLentRelstoreStreamEqualsKept(t *testing.T) {
	st, cl := startRelServer(t, 3*rowBatchSize+17)
	q := &source.Query{Table: "items", Columns: []int{2, 1, 0}, Limit: -1,
		Filter: expr.NewBinary(expr.OpGe, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(5)))}
	local, err := st.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := source.DrainOwned(local)
	if err != nil || len(want) != 3*rowBatchSize+12 {
		t.Fatalf("local: %d rows, %v", len(want), err)
	}
	for _, lent := range []bool{false, true} {
		it, err := cl.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		drain := source.DrainOwned
		if lent {
			source.Lend(it)
			drain = source.DrainCopies
		}
		got, err := drain(it)
		if err != nil || len(got) != len(want) {
			t.Fatalf("lent %v: %d rows, %v; want %d", lent, len(got), err, len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("lent %v: row %d = %v, the store has %v", lent, i, got[i], want[i])
			}
		}
	}
}

// A value copied out of a lent row is the consumer's to keep (DESIGN.md
// "Who keeps a row"): a GROUP BY key, a MIN. So a frame's string block is
// never written again, though the next frame is decoded over its slab,
// into the connection's buffer and through the connection's string
// scratch. A lent stream of four frames of distinct strings keeps one
// value from each and reads them once the stream has ended; the same
// stream kept is drained by DrainOwned, which fails on a row that changed.
func TestLentStringsOutliveTheirFrame(t *testing.T) {
	const n = 3*rowBatchSize + 17
	st, cl := startRelServer(t, 0)
	schema := types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "name", Type: types.KindString})
	if err := st.CreateTable("names", schema, 0); err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("name-%05d", i) }
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(name(i))}
	}
	if _, err := st.Insert(ctx, "names", rows); err != nil {
		t.Fatal(err)
	}
	q := &source.Query{Table: "names", Columns: []int{1, 0}, Limit: -1}

	kept, err := cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := source.DrainOwned(kept); err != nil || len(got) != n {
		t.Fatalf("kept stream: %d rows, %v", len(got), err)
	}

	it, err := cl.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	source.Lend(it)
	var saved []types.Value
	for i := 0; ; i++ {
		r, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lent stream, row %d: %v", i, err)
		}
		if i%rowBatchSize == 5 {
			saved = append(saved, r[0])
		}
	}
	if len(saved) != 4 {
		t.Fatalf("kept %d values, want one from each of 4 frames", len(saved))
	}
	for k, v := range saved {
		if want := name(k*rowBatchSize + 5); v.Str() != want {
			t.Errorf("the value kept from frame %d reads %q once the stream has ended, want %q", k, v.Str(), want)
		}
	}
}

// discardConn is a connection whose peer reads everything at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) SetDeadline(time.Time) error { return nil }

// The server's side of a shipped range — the store's Execute and
// streamRows encoding what it is lent — allocates per statement, not per
// row: the same over 2 048 rows and over 4 096.
func TestStreamRowsAllocsDoNotGrowWithRows(t *testing.T) {
	const n = 2048
	st, _ := startRelServer(t, 2*n)
	fc := newFrameConn(discardConn{}, SimLink{}, SimLink{})
	srv := &Server{}
	at := func(rows int) float64 {
		q := &source.Query{Table: "items", Columns: []int{0, 2}, Limit: -1,
			Filter: expr.NewBinary(expr.OpLt, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(int64(rows))))}
		return testing.AllocsPerRun(5, func() {
			it, err := st.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.streamRows(ctx, fc, it, nil); err != nil {
				t.Fatalf("streamRows: %v", err)
			}
		})
	}
	if a, b := at(n), at(2*n); a != b {
		t.Errorf("Execute + streamRows: %v allocations over %d rows, %v over %d", a, n, b, 2*n)
	}
}
