package wire

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// A scan reads the table as it stood when Execute returned, whatever is
// written while it is being read (DESIGN.md "What a scan holds"). The
// tests below hold every writing store to that, in process and behind a
// wire server, whose stream stalls on full socket buffers with the scan
// half read while the writes go by on other connections.

// scanTable is t(id INT key, grp INT, v FLOAT), as each store holds it;
// the docstore nests grp one object down, where an UPDATE must copy.
var scanTable = types.NewSchema(
	types.Column{Name: "id", Type: types.KindInt},
	types.Column{Name: "grp", Type: types.KindInt},
	types.Column{Name: "v", Type: types.KindFloat},
)

var (
	scanID  = expr.NewBoundColRef(0, types.KindInt, "id")
	scanGrp = expr.NewBoundColRef(1, types.KindInt, "grp")
	scanV   = expr.NewBoundColRef(2, types.KindFloat, "v")
)

func scanRows(lo, hi int) []types.Row {
	rows := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewFloat(float64(i) / 4)})
	}
	return rows
}

// scanStores builds each writing store with rows in table t.
var scanStores = []struct {
	name  string
	limit bool // Execute takes a LIMIT, advertised or not
	build func(rows []types.Row) (source.Source, error)
}{
	{"relstore", true, func(rows []types.Row) (source.Source, error) {
		st := relstore.New("rel")
		if err := st.CreateTable("t", scanTable, 0); err != nil {
			return nil, err
		}
		_, err := st.Insert(ctx, "t", rows)
		return st, err
	}},
	{"kvstore", true, func(rows []types.Row) (source.Source, error) {
		st := kvstore.New("kv")
		if err := st.CreateBucket("t", scanTable, 0); err != nil {
			return nil, err
		}
		_, err := st.Insert(ctx, "t", rows)
		return st, err
	}},
	{"docstore", false, func(rows []types.Row) (source.Source, error) {
		st := docstore.New("doc")
		err := st.CreateCollection("t", []docstore.FieldMap{
			{Column: scanTable.Columns[0], Path: "id"}, {Column: scanTable.Columns[1], Path: "k.grp"}, {Column: scanTable.Columns[2], Path: "v"},
		})
		if err != nil {
			return nil, err
		}
		_, err = st.Insert(ctx, "t", rows)
		return st, err
	}},
}

// eachScanStore runs fn on every store of n rows, in process and served
// (srv is the server, nil in process); limit says whether src may be
// handed one.
func eachScanStore(t *testing.T, n int, fn func(t *testing.T, limit bool, src source.Source, srv *Server)) {
	for _, st := range scanStores {
		for _, served := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s", st.name, map[bool]string{false: "in_process", true: "wire"}[served]), func(t *testing.T) {
				src, err := st.build(scanRows(0, n))
				if err != nil {
					t.Fatal(err)
				}
				var srv *Server
				if served {
					srv, err = Serve(ctx, "127.0.0.1:0", src)
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					cl, err := DialContext(ctx, srv.Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					src = cl
				}
				fn(t, st.limit && (!served || src.Capabilities().Limit), src, srv)
			})
		}
	}
}

// scanQueries are the scans src can be asked for: the whole table, and
// what its capabilities allow of a filter and a projection.
func scanQueries(src source.Source) []*source.Query {
	qs := []*source.Query{source.NewScan("t")}
	switch caps := src.Capabilities(); {
	case caps.Filter == source.FilterFull && caps.Project:
		qs = append(qs, &source.Query{Table: "t", Columns: []int{2, 0}, Limit: -1,
			Filter: expr.NewBinary(expr.OpLt, scanGrp, expr.NewConst(types.NewInt(4)))})
	case caps.Filter == source.FilterKey:
		qs = append(qs, &source.Query{Table: "t", Limit: -1,
			Filter: expr.NewBinary(expr.OpGe, scanID, expr.NewConst(types.NewInt(100)))})
	}
	return qs
}

// sortedRows renders rows in an order that does not depend on the
// store's: one keeps insertion order, another key order.
func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestScanIsolation(t *testing.T) {
	const n = 20000 // ≈ 300 KiB a stream, more than the socket buffers hold
	eachScanStore(t, n, func(t *testing.T, _ bool, src source.Source, srv *Server) {
		w := src.(source.Writer)
		model := scanRows(0, n)
		oracle := func(q *source.Query) []string {
			rows, err := source.ApplyResidual(model, q)
			if err != nil {
				t.Fatal(err)
			}
			return sortedRows(rows)
		}
		type open struct {
			q    *source.Query
			it   source.RowIter
			lent bool
			want []string
		}
		var scans []open
		for _, q := range scanQueries(src) {
			for _, lent := range []bool{false, true} {
				it, err := src.Execute(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if lent {
					source.Use(it, source.Lent)
				}
				scans = append(scans, open{q, it, lent, oracle(q)})
			}
		}

		// Insert, update, delete — on the store and on the model.
		must := func(what string, got int64, err error, want int) {
			t.Helper()
			if err != nil || got != int64(want) {
				t.Fatalf("%s: %d rows, %v; want %d", what, got, err, want)
			}
		}
		grpIs := func(g int64) expr.Expr { return expr.NewBinary(expr.OpEq, scanGrp, expr.NewConst(types.NewInt(g))) }
		bump := []source.SetClause{{Col: 2, Value: expr.NewBinary(expr.OpAdd, scanV, expr.NewConst(types.NewFloat(1000)))}}
		move := []source.SetClause{{Col: 1, Value: expr.NewConst(types.NewInt(77))}}
		got, err := w.Insert(ctx, "t", scanRows(n, n+50))
		must("insert", got, err, 50)
		if srv != nil {
			// The writes meet a scan half read: the server is still
			// streaming the whole table to both its readers.
			whole := source.NewScan("t").String()
			streaming := 0
			for _, q := range srv.Queries.Active() {
				if q.SQL == whole {
					streaming++
				}
			}
			if streaming != 2 {
				t.Errorf("%d whole-table streams in flight when the first write committed, want 2", streaming)
			}
		}
		model = append(model, scanRows(n, n+50)...)
		got, err = w.Update(ctx, "t", grpIs(2), bump)
		must("update", got, err, (n+50)/10)
		got, err = w.Delete(ctx, "t", grpIs(5))
		must("delete", got, err, (n+50)/10)
		if txs, ok := src.(source.Transactional); ok && src.Capabilities().Txn {
			tx, err := txs.BeginTx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.Delete(ctx, "t", nil)
			must("delete in a transaction", got, err, (n+50)/10*9)
			if err := tx.Abort(ctx); err != nil {
				t.Fatal(err)
			}
			if tx, err = txs.BeginTx(ctx); err != nil {
				t.Fatal(err)
			}
			got, err = tx.Update(ctx, "t", grpIs(1), move)
			must("update in a transaction", got, err, (n+50)/10)
			if err := tx.Prepare(ctx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			for _, r := range model {
				if r[1].Int() == 1 {
					r[1] = types.NewInt(77)
				}
			}
		}
		model = slices.DeleteFunc(model, func(r types.Row) bool { return r[1].Int() == 5 })
		for _, r := range model {
			if r[1].Int() == 2 {
				r[2] = types.NewFloat(r[2].Float() + 1000)
			}
		}

		// The open scans read what was there; new ones, what is.
		var kept [][]types.Row
		for _, s := range scans {
			drain, how := source.DrainOwned, "kept"
			if s.lent {
				drain, how = source.DrainCopies, "lent"
			}
			rows, err := drain(s.it)
			if err != nil {
				t.Fatalf("%s, %s: %v", s.q, how, err)
			}
			if got := sortedRows(rows); !slices.Equal(got, s.want) {
				t.Errorf("%s, %s: a scan opened before the writes read %d rows, the table had %d that pass\n got %v\nwant %v",
					s.q, how, len(got), len(s.want), got[:min(len(got), 4)], s.want[:min(len(s.want), 4)])
			}
			if !s.lent {
				kept = append(kept, rows)
			}
			it, err := src.Execute(ctx, s.q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err = source.DrainOwned(it)
			if err != nil {
				t.Fatalf("%s: %v", s.q, err)
			}
			if got, want := sortedRows(rows), oracle(s.q); !slices.Equal(got, want) {
				t.Errorf("%s: a scan opened after the writes read %d rows, the table has %d that pass", s.q, len(got), len(want))
			}
		}

		// Rows a keeper holds are its own: more writes change none.
		var copies [][]string
		for _, rows := range kept {
			copies = append(copies, sortedRows(rows))
		}
		if _, err := w.Update(ctx, "t", nil, bump); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Delete(ctx, "t", grpIs(3)); err != nil {
			t.Fatal(err)
		}
		for i, rows := range kept {
			if !slices.Equal(sortedRows(rows), copies[i]) {
				t.Errorf("rows kept from scan %d read differently after later writes", i)
			}
		}
	})
}

// TestRaceStressScansDuringWrites: scanners open scans, whole or to a
// random limit, while one writer goes through rounds of an insert, a
// delete and an update of every row. Round m leaves every row's v at m,
// so whatever a scan read must be one committed state: one v throughout,
// the ids and the count of a state that v has. Run under -race.
func TestRaceStressScansDuringWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	const (
		n        = 600
		rounds   = 25
		scanners = 4
	)
	eachScanStore(t, n, func(t *testing.T, limit bool, src source.Source, _ *Server) {
		w := src.(source.Writer)
		setV := func(m int) []source.SetClause {
			return []source.SetClause{{Col: 2, Value: expr.NewConst(types.NewFloat(float64(m)))}}
		}
		idIs := func(id int) expr.Expr {
			return expr.NewBinary(expr.OpEq, scanID, expr.NewConst(types.NewInt(int64(id))))
		}
		if _, err := w.Update(ctx, "t", nil, setV(0)); err != nil {
			t.Fatal(err)
		}
		// The writer starts when every scanner has a scan open, and a
		// scanner stops after the scan during which the writer finished.
		done := make(chan struct{})
		var wg, open sync.WaitGroup
		open.Add(scanners)
		for g := 0; g < scanners; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for scans := 0; ; scans++ {
					select {
					case <-done:
						return
					default:
					}
					want := []int{-1, 1, 7, n / 2, 2 * n}[rng.Intn(5)]
					q := source.NewScan("t")
					if limit {
						q.Limit = int64(want)
					}
					it, err := src.Execute(ctx, q)
					if scans == 0 {
						open.Done()
					}
					if err != nil {
						t.Error(err)
						return
					}
					if rng.Intn(2) == 0 {
						source.Use(it, source.Lent)
					}
					var ids []int
					m := -1
					for want < 0 || len(ids) < want {
						r, err := it.Next()
						if err != nil {
							break
						}
						if m < 0 {
							m = int(r[2].Float())
						}
						if int(r[2].Float()) != m {
							t.Errorf("a scan read v = %v after v = %d: two committed states", r[2], m)
						}
						ids = append(ids, int(r[0].Int()))
					}
					it.Close()
					// With v = m the table held ids m..n-1 and n+1..n+m,
					// then n+m+1 as well, then all those but m.
					sort.Ints(ids)
					if len(slices.Compact(ids)) != len(ids) {
						t.Errorf("a scan read an id twice: %v", ids)
					}
					for _, id := range ids {
						if id < m || id == n || id > n+m+1 {
							t.Errorf("a scan that read v = %d read id %d", m, id)
						}
					}
					whole := want < 0 || want > n+1
					if has := func(id int) bool { _, ok := slices.BinarySearch(ids, id); return ok }; whole && !has(n+m+1) && !has(m) {
						t.Errorf("a scan that read v = %d read neither id %d nor id %d: the delete without the insert before it", m, m, n+m+1)
					}
					if len(ids) != n && len(ids) != n+1 && len(ids) != want {
						t.Errorf("a scan for %d rows read %d: no state holds as many", want, len(ids))
					}
				}
			}(int64(g) + 1)
		}
		open.Wait()
		for m := 1; m <= rounds; m++ {
			if _, err := w.Insert(ctx, "t", []types.Row{{types.NewInt(int64(n + m)), types.NewInt(0), types.NewFloat(float64(m - 1))}}); err != nil {
				t.Error(err)
			}
			if got, err := w.Delete(ctx, "t", idIs(m-1)); err != nil || got != 1 {
				t.Errorf("delete of id %d: %d rows, %v", m-1, got, err)
			}
			if got, err := w.Update(ctx, "t", nil, setV(m)); err != nil || got != n {
				t.Errorf("update of every row: %d rows, %v; want %d", got, err, n)
			}
		}
		close(done)
		wg.Wait()
	})
}
