package relstore

import (
	"io"
	"slices"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// FuzzTable decodes from its input runs of inserts, key and non-key
// updates (NULLs among the values written), deletes and transactions
// that write and abort, over a table (id INT key, v INT indexed, s
// STRING) whose rows are held to a []Row model in table order. Between
// the writes it opens full scans, kept and lent, and index probes on
// the key and on v, and reads them a few rows at a time: every row a
// scan or a probe hands out is the model's as it stood when it was
// opened, and a kept row still reads so at the end. A run writes up to
// 64 consecutive keys, so that a short input fills and crosses chunks.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 63, 5, 0, 5, 1, 0, 0, 1, 20, 3, 0, 10, 3, 10, 6, 7, 0, 7, 7, 1, 63, 6, 0, 0, 40, 4, 1, 0, 7, 2, 63})
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 63, 0, 128, 0, 63, 0, 192, 0, 63, 5, 0, 5, 4, 1, 6, 2, 0, 2, 200, 2, 0, 2, 0, 3, 100, 0, 7, 0, 100, 7, 1, 100})
	f.Add([]byte{0, 0, 0, 39, 0, 0, 0, 2, 1, 0, 2, 2, 0, 3, 0, 0, 0, 39, 1, 0, 0, 4, 63, 1, 0, 4, 63, 2, 0, 4, 63,
		0, 0, 2, 5, 0, 0, 9, 3, 0, 0, 1, 30, 1, 3, 0, 4, 63, 0, 0, 2, 7, 0, 1, 9, 2, 4, 0, 4, 63, 0, 0, 4, 63})
	f.Add([]byte("insert update delete abort: a scan, a probe and a run of keys, then holes in it"))
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		s := New("fuzz")
		schema := types.NewSchema(
			types.Column{Name: "id", Type: types.KindInt},
			types.Column{Name: "v", Type: types.KindInt, Nullable: true},
			types.Column{Name: "s", Type: types.KindString, Nullable: true},
		)
		if err := s.CreateTable("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateIndex("t", 1); err != nil {
			t.Fatal(err)
		}
		id, v := expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewBoundColRef(1, types.KindInt, "v")
		num := func(i int) expr.Expr { return expr.NewConst(types.NewInt(int64(i))) }
		between := func(lo, hi int) expr.Expr { // lo <= id < hi
			return expr.NewBinary(expr.OpAnd, expr.NewBinary(expr.OpGe, id, num(lo)), expr.NewBinary(expr.OpLt, id, num(hi)))
		}
		// The values op writes: v NULL one time in five, s one in three.
		vOf := func(op, i int) types.Value {
			if (op+i)%5 == 0 {
				return types.Null
			}
			return types.NewInt(int64((op * (i + 1)) % 7))
		}
		sOf := func(op int) types.Value {
			if op%3 == 0 {
				return types.Null
			}
			return types.NewString(strings.Repeat("x", op%7))
		}
		var model []types.Row
		where := func(f func(types.Row) bool) []int {
			var at []int
			for i, r := range model {
				if f(r) {
					at = append(at, i)
				}
			}
			return at
		}
		same := func(a, b types.Row) bool {
			return slices.EqualFunc(a, b, func(x, y types.Value) bool {
				return x.Kind() == y.Kind() && (x.IsNull() || x.Compare(y) == 0)
			})
		}
		type reader struct {
			it   source.RowIter
			want []types.Row
			read int
			kept []types.Row
			lent bool
		}
		var readers []*reader
		open := func(q *source.Query, lent bool, want []types.Row) {
			it, err := s.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if lent {
				source.Use(it, source.Lent)
			}
			readers = append(readers, &reader{it: it, want: want, lent: lent})
		}
		readSome := func(op int, r *reader, n int) {
			for ; n > 0; n-- {
				row, err := r.it.Next()
				if err == io.EOF {
					if r.read != len(r.want) {
						t.Fatalf("op %d: a reader of %d rows ends after %d", op, len(r.want), r.read)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.read == len(r.want) || !same(row, r.want[r.read]) {
					t.Fatalf("op %d: a reader reads %v at row %d, not what the table held when it was opened", op, row, r.read)
				}
				if !r.lent {
					r.kept = append(r.kept, row)
				}
				r.read++
			}
		}
		// write runs one write statement in tx, or in one of its own when
		// tx is nil, and returns what the model becomes when it succeeds
		// and whether it should.
		write := func(op, k int, tx source.Tx) ([]types.Row, bool) {
			w := source.Writer(s)
			if tx != nil {
				w = tx.(source.Writer)
			}
			after := slices.Clone(model)
			n := next()%64 + 1
			switch next() % 4 {
			case 0: // a run of inserts, refused whole if one key is held
				rows := make([]types.Row, n)
				held := false
				for i := range rows {
					rows[i] = types.Row{types.NewInt(int64(k + i)), vOf(op, i), sOf(op)}
					held = held || len(where(func(r types.Row) bool { return r[0].Int() == int64(k+i) })) > 0
				}
				got, err := w.Insert(ctx, "t", rows)
				if held != (err != nil) || err == nil && got != int64(n) {
					t.Fatalf("op %d: insert of %d rows from %d: %d, %v; a key was held: %v", op, n, k, got, err, held)
				}
				return append(after, rows...), !held
			case 1: // SET v, s of a range of keys
				nv, ns := vOf(op, n), sOf(op+n)
				at := where(func(r types.Row) bool { return r[0].Int() >= int64(k) && r[0].Int() < int64(k+n) })
				got, err := w.Update(ctx, "t", between(k, k+n), []source.SetClause{{Col: 1, Value: expr.NewConst(nv)}, {Col: 2, Value: expr.NewConst(ns)}})
				if err != nil || got != int64(len(at)) {
					t.Fatalf("op %d: update of [%d, %d): %d rows, %v; want %d", op, k, k+n, got, err, len(at))
				}
				for _, i := range at {
					after[i] = types.Row{after[i][0], nv, ns}
				}
				return after, true
			case 2: // SET id of one row: to NULL, or moved by up to ±32
				nk := types.NewInt(int64(k + n - 32))
				if n == 1 {
					nk = types.Null
				}
				at := where(func(r types.Row) bool { return r[0].Int() == int64(k) })
				refused := len(at) > 0 && (nk.IsNull() || len(where(func(r types.Row) bool { return r[0].Compare(nk) == 0 && r[0].Int() != int64(k) })) > 0)
				got, err := w.Update(ctx, "t", expr.NewBinary(expr.OpEq, id, num(k)), []source.SetClause{{Col: 0, Value: expr.NewConst(nk)}})
				if refused != (err != nil) || err == nil && got != int64(len(at)) {
					t.Fatalf("op %d: SET id = %v WHERE id = %d: %d rows, %v; refused: %v", op, nk, k, got, err, refused)
				}
				for _, i := range at {
					after[i] = types.Row{nk, after[i][1], after[i][2]}
				}
				return after, !refused
			default: // DELETE a range of keys
				at := where(func(r types.Row) bool { return r[0].Int() >= int64(k) && r[0].Int() < int64(k+n) })
				got, err := w.Delete(ctx, "t", between(k, k+n))
				if err != nil || got != int64(len(at)) {
					t.Fatalf("op %d: delete of [%d, %d): %d rows, %v; want %d", op, k, k+n, got, err, len(at))
				}
				for i := len(at) - 1; i >= 0; i-- {
					after = slices.Delete(after, at[i], at[i]+1)
				}
				return after, true
			}
		}
		for op := 0; len(in) > 0 && op < 300; op++ {
			k := next() | next()&3<<8
			switch next() % 5 {
			case 0: // a statement, committed or refused whole
				if after, ok := write(op, k, nil); ok {
					model = after
				}
			case 1: // a statement, then its transaction aborted
				tx, err := s.BeginTx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				write(op, k, tx)
				if err := tx.Abort(ctx); err != nil {
					t.Fatal(err)
				}
			case 2: // a full scan
				open(source.NewScan("t"), k%2 == 1, slices.Clone(model))
			case 3: // a probe of the key's index or of v's
				q := &source.Query{Table: "t", Limit: -1}
				var at []int
				if k%2 == 0 {
					q.Filter = expr.NewBinary(expr.OpEq, v, num(k%7))
					at = where(func(r types.Row) bool { return !r[1].IsNull() && r[1].Int() == int64(k%7) })
				} else {
					q.Filter = &expr.InList{E: id, List: []expr.Expr{num(k), num(k + 2), num(k + 5)}}
					at = where(func(r types.Row) bool {
						return r[0].Int() == int64(k) || r[0].Int() == int64(k+2) || r[0].Int() == int64(k+5)
					})
				}
				want := make([]types.Row, len(at))
				for i, p := range at {
					want[i] = model[p]
				}
				open(q, k%4 == 1, want)
			default: // read a few rows of one
				if len(readers) > 0 {
					readSome(op, readers[k%len(readers)], next()%64+1)
				}
			}
		}
		open(source.NewScan("t"), false, model)
		for _, r := range readers {
			readSome(-1, r, len(r.want)+1)
			for i, row := range r.kept {
				if !same(row, r.want[i]) {
					t.Fatalf("a kept row %d reads %v at the end, %v when it was handed out", i, row, r.want[i])
				}
			}
		}
	})
}
