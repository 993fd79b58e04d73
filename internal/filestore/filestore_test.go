package filestore

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

var fileSchema = types.NewSchema(
	types.Column{Name: "sku", Type: types.KindInt},
	types.Column{Name: "desc", Type: types.KindString},
	types.Column{Name: "price", Type: types.KindFloat},
)

const csvData = "1,widget,9.99\n2,gadget,19.5\n3,sprocket,0.25\n"

func TestFileScanInMemory(t *testing.T) {
	s := New("files1")
	if err := s.RegisterData("products", csvData, fileSchema); err != nil {
		t.Fatal(err)
	}
	it, err := s.Execute(ctx, source.NewScan("products"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil || len(rows) != 3 {
		t.Fatalf("scan = %d rows, %v", len(rows), err)
	}
	if rows[0][0].Int() != 1 || rows[0][1].Str() != "widget" || rows[0][2].Float() != 9.99 {
		t.Errorf("row 0 = %v", rows[0])
	}
	// Row count learned after the scan.
	info, _ := s.TableInfo(ctx, "products")
	if info.RowCount != 3 {
		t.Errorf("RowCount = %d", info.RowCount)
	}
}

// A scan that was asked to lend parses every record into one row —
// NULL where a field is empty, whatever the record before left there —
// and reads the same as one that was not; a projected scan likewise.
func TestFileScanLent(t *testing.T) {
	s := New("files1")
	data := "1,widget,9.99\n2,,\n3,sprocket,0.25\n,,7.5\n"
	if err := s.RegisterData("products", data, fileSchema); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{nil, {2, 0}} {
		q := source.NewScan("products")
		q.Columns = cols
		kept, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := source.DrainOwned(kept)
		if err != nil || len(want) != 4 {
			t.Fatalf("columns %v, kept: %d rows, %v", cols, len(want), err)
		}
		lent, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		source.Use(lent, source.Lent)
		var first *types.Value
		for i := 0; ; i++ {
			r, err := lent.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !r.Equal(want[i]) || r[1].IsNull() != want[i][1].IsNull() {
				t.Errorf("columns %v, lent: row %d = %v, want %v", cols, i, r, want[i])
			}
			if first == nil {
				first = &r[0]
			} else if first != &r[0] {
				t.Errorf("columns %v: row %d was not parsed into the row lent before", cols, i)
			}
		}
		lent.Close()
	}
}

func TestFileScanFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.csv")
	if err := os.WriteFile(path, []byte("7,seven,7.7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New("files2")
	if err := s.RegisterFile("p", path, fileSchema); err != nil {
		t.Fatal(err)
	}
	it, err := s.Execute(ctx, source.NewScan("p"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("disk scan = %v, %v", rows, err)
	}
}

func TestFileProjection(t *testing.T) {
	s := New("files3")
	s.RegisterData("products", csvData, fileSchema)
	q := source.NewScan("products")
	q.Columns = []int{2, 0}
	it, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := source.Drain(it)
	if len(rows[0]) != 2 || rows[0][0].Float() != 9.99 || rows[0][1].Int() != 1 {
		t.Errorf("projection = %v", rows[0])
	}
	q.Columns = []int{5}
	if _, err := s.Execute(ctx, q); err == nil {
		t.Error("bad projection column must error")
	}
}

func TestFileEmptyFieldIsNull(t *testing.T) {
	s := New("files4")
	s.RegisterData("p", "1,,2.5\n", fileSchema)
	it, _ := s.Execute(ctx, source.NewScan("p"))
	rows, err := source.Drain(it)
	if err != nil || !rows[0][1].IsNull() {
		t.Errorf("empty field = %v, %v", rows[0], err)
	}
}

func TestFileRejectsUnsupportedShapes(t *testing.T) {
	s := New("files5")
	s.RegisterData("p", csvData, fileSchema)
	q := source.NewScan("p")
	q.Limit = 1
	if _, err := s.Execute(ctx, q); err == nil {
		t.Error("limit must be rejected")
	}
}

func TestFileErrors(t *testing.T) {
	s := New("files6")
	if err := s.RegisterData("p", csvData, fileSchema); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterData("p", csvData, fileSchema); err == nil {
		t.Error("duplicate table must error")
	}
	if _, err := s.Execute(ctx, source.NewScan("ghost")); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := s.TableInfo(ctx, "ghost"); err == nil {
		t.Error("unknown table info must error")
	}
	// Bad field count.
	s.RegisterData("bad", "1,2\n", fileSchema)
	it, err := s.Execute(ctx, source.NewScan("bad"))
	if err == nil {
		if _, err = source.Drain(it); err == nil {
			t.Error("short record must error")
		}
	}
	// Uncoercible field.
	s.RegisterData("bad2", "xyz,a,1.0\n", fileSchema)
	it, err = s.Execute(ctx, source.NewScan("bad2"))
	if err == nil {
		if _, err = source.Drain(it); err == nil {
			t.Error("uncoercible field must error")
		}
	}
	// Missing file surfaces at Execute.
	if err := s.RegisterFile("nofile", "/nonexistent/file.csv", fileSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(ctx, source.NewScan("nofile")); err == nil {
		t.Error("missing file must error")
	}
	names, _ := s.Tables(ctx)
	if len(names) != 4 {
		t.Errorf("Tables = %v", names)
	}
}

func TestFileCapabilities(t *testing.T) {
	c := New("f").Capabilities()
	if c.Filter != source.FilterNone || !c.Project || c.Write {
		t.Errorf("caps = %v", c)
	}
}

// TestConcurrentScansAndTableInfo is for -race: every scan stores the
// table's row count at EOF while TableInfo reads it.
func TestConcurrentScansAndTableInfo(t *testing.T) {
	s := New("files")
	if err := s.RegisterData("products", csvData, fileSchema); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				it, err := s.Execute(ctx, source.NewScan("products"))
				if err != nil {
					t.Error(err)
					return
				}
				if rows, err := source.Drain(it); err != nil || len(rows) != 3 {
					t.Errorf("scan = %d rows, %v", len(rows), err)
					return
				}
				if info, err := s.TableInfo(ctx, "products"); err != nil || info.RowCount != 3 {
					t.Errorf("TableInfo after a full scan = %+v, %v", info, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScanRowsSurviveTheStream checks the rows of a long scan once it
// has ended: past the first 64 they are carved from shared chunks, and
// empty fields must read NULL whatever the chunk held.
func TestScanRowsSurviveTheStream(t *testing.T) {
	var data strings.Builder
	for i := 0; i < 500; i++ {
		if i%3 == 0 {
			fmt.Fprintf(&data, "%d,,%d.5\n", i, i)
		} else {
			fmt.Fprintf(&data, "%d,item%d,\n", i, i)
		}
	}
	s := New("files")
	if err := s.RegisterData("products", data.String(), fileSchema); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{nil, {2, 0}, {1, 1}} {
		q := source.NewScan("products")
		q.Columns = cols
		it, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.Drain(it)
		if err != nil || len(rows) != 500 {
			t.Fatalf("columns %v: %d rows, %v", cols, len(rows), err)
		}
		for i, r := range rows {
			want := types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("item%d", i)), types.Null}
			if i%3 == 0 {
				want[1], want[2] = types.Null, types.NewFloat(float64(i)+0.5)
			}
			if cols != nil {
				full := want
				want = nil
				for _, c := range cols {
					want = append(want, full[c])
				}
			}
			if len(r) != len(want) || !r.Equal(want) {
				t.Fatalf("columns %v: row %d = %v, want %v", cols, i, r, want)
			}
		}
	}
}

// An on-disk table is read a block at a time, and a field is cut from
// its block: rows kept past many blocks read what the file says, records
// that straddle blocks and one longer than a block included.
func TestDiskScanAcrossBlocks(t *testing.T) {
	var data strings.Builder
	long := strings.Repeat("a long line\r\n", blockBytes/8)
	const n = 12000
	for i := 0; i < n; i++ {
		if i == n/2 {
			fmt.Fprintf(&data, "%d,\"%s\",0.5\n", i, long)
			continue
		}
		fmt.Fprintf(&data, "%d,item %d,%d.25\n", i, i, i%100)
	}
	if data.Len() < 4*blockBytes {
		t.Fatalf("%d bytes are not several blocks", data.Len())
	}
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(path, []byte(data.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New("files")
	if err := s.RegisterFile("disk", path, fileSchema); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterData("mem", data.String(), fileSchema); err != nil {
		t.Fatal(err)
	}
	scan := func(table string) []types.Row {
		it, err := s.Execute(ctx, source.NewScan(table))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := source.DrainOwned(it)
		if err != nil || len(rows) != n {
			t.Fatalf("%s: %d rows, %v", table, len(rows), err)
		}
		return rows
	}
	disk, mem := scan("disk"), scan("mem")
	for i := range disk {
		if !slices.EqualFunc(disk[i], mem[i], types.Identical) {
			t.Fatalf("row %d = %v on disk, %v in memory", i, disk[i], mem[i])
		}
	}
	if got, want := disk[n/2][1].Str(), strings.ReplaceAll(long, "\r\n", "\n"); got != want {
		t.Errorf("the long field reads %d bytes, want %d", len(got), len(want))
	}
}

// A scan whose consumer was lent its rows allocates for the scan — the
// iterator, the field slice, the one row — and nothing per record.
func TestLentScanAllocsDoNotGrowPerRow(t *testing.T) {
	at := func(n int) float64 {
		s := New("files")
		if err := s.RegisterData("products", strings.Repeat("1,widget,9.99\n2,,\n3,sprocket,0.25\n,,7.5\n", n/4), fileSchema); err != nil {
			t.Fatal(err)
		}
		q := source.NewScan("products")
		q.Columns = []int{2, 0}
		return testing.AllocsPerRun(5, func() {
			it, err := s.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			source.Use(it, source.Lent)
			rows := 0
			for ; err == nil; rows++ {
				_, err = it.Next()
			}
			if err != io.EOF || rows-1 != n {
				t.Fatalf("%d rows, %v", rows-1, err)
			}
			it.Close()
		})
	}
	a, b := at(2048), at(4096)
	if a != b || a > 8 {
		t.Errorf("a lent scan: %v allocations over 2048 records, %v over 4096; want the same, and at most 8", a, b)
	}
}

// BenchmarkScanProject parses 20 000 records and hands out three of
// their five columns: to a consumer that keeps the rows, to one that was
// lent them, and — kept — from a file on disk.
func BenchmarkScanProject(b *testing.B) {
	var data strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&data, "%d,%d,region%d,%d.25,open\n", i, i%997, i%5, i%1000)
	}
	s := New("bench")
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "cust", Type: types.KindInt},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "status", Type: types.KindString},
	)
	if err := s.RegisterData("orders", data.String(), schema); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "orders.csv")
	if err := os.WriteFile(path, []byte(data.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	if err := s.RegisterFile("orders_disk", path, schema); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, table string
		lent        bool
	}{{"kept", "orders", false}, {"lent", "orders", true}, {"disk", "orders_disk", false}} {
		b.Run(c.name, func(b *testing.B) {
			q := source.NewScan(c.table)
			q.Columns = []int{0, 2, 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := s.Execute(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if c.lent {
					source.Use(it, source.Lent)
				}
				n := 0
				for ; err == nil; n++ {
					_, err = it.Next()
				}
				if err != io.EOF || n-1 != 20000 {
					b.Fatalf("%d rows, %v", n-1, err)
				}
				it.Close()
			}
		})
	}
}
