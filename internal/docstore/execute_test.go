package docstore

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// referenceExecute is Execute done the plain way: every document
// decoded to the maps encoding/json would have made, every field of it
// looked up in those (the path cut at its dots per lookup), then the
// filter, then the projection, one fresh row per step.
func referenceExecute(s *Store, q *source.Query) ([]types.Row, error) {
	c := s.collections[q.Table]
	var out []types.Row
	for _, doc := range c.docs {
		m := c.keys.decode(doc)
		row := make(types.Row, len(c.fields))
		for i, f := range c.fields {
			v, err := referenceField(m, f.Path)
			if err == nil {
				v, err = v.Coerce(f.Column.Type)
			}
			if err != nil {
				return nil, fmt.Errorf("docstore %s: field %s (path %s): %w", s.name, f.Column.Name, f.Path, err)
			}
			row[i] = v
		}
		if q.Filter != nil {
			ok, err := expr.EvalBool(q.Filter, row)
			if err != nil {
				return nil, fmt.Errorf("docstore %s: %w", s.name, err)
			}
			if !ok {
				continue
			}
		}
		if q.Columns != nil {
			proj := make(types.Row, len(q.Columns))
			for j, col := range q.Columns {
				if col < 0 || col >= len(row) {
					return nil, fmt.Errorf("docstore %s: projected column %d out of range", s.name, col)
				}
				proj[j] = row[col]
			}
			row = proj
		}
		out = append(out, row)
	}
	return out, nil
}

// referenceField looks a dotted path up in a decoded document and
// converts what it finds as encoding/json decoded it to a Value.
func referenceField(doc map[string]any, path string) (types.Value, error) {
	cur, found := any(doc), true
	for rest, more := path, true; more && found; {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		m, isMap := cur.(map[string]any)
		if found = isMap; isMap {
			cur, found = m[part]
		}
	}
	if !found {
		return types.Null, nil
	}
	switch v := cur.(type) {
	case nil:
		return types.Null, nil
	case bool:
		return types.NewBool(v), nil
	case float64:
		// encoding/json decodes every number as float64; integral values
		// are INT so key joins behave.
		if v == float64(int64(v)) {
			return types.NewInt(int64(v)), nil
		}
		return types.NewFloat(v), nil
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return types.NewInt(i), nil
		}
		f, err := v.Float64()
		return types.NewFloat(f), err
	case string:
		return types.NewString(v), nil
	case []any:
		return types.Null, errNotScalar("an array")
	default:
		return types.Null, errNotScalar("an object")
	}
}

func TestExecuteMatchesReference(t *testing.T) {
	s := newTestDocs(t)
	for _, d := range []string{
		`{"id": 5, "name": null, "address": {"city": null}, "vitals": {"weight": 61}}`, // explicit nulls
		`{"id": 6, "name": "fay", "address": "nowhere", "vitals": {}}`,                 // scalar where an object is mapped
		`{"name": "gus", "address": {"city": "rome"}, "vitals": {"weight": 99.5}}`,     // no id
	} {
		if err := s.InsertJSON("patients", d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 7; i < 200; i++ { // enough rows that output rows share chunks
		doc := fmt.Sprintf(`{"id": %d, "name": "p%d", "address": {"city": "c%d"}, "vitals": {"weight": %d.5}}`, i, i, i%5, 40+i%60)
		if err := s.InsertJSON("patients", doc); err != nil {
			t.Fatal(err)
		}
	}
	col := func(name string) expr.Expr { return expr.NewColRef("", name) }
	filters := map[string]expr.Expr{
		"none": nil,
		// name is in every projection below, weight in none of them.
		"on a projected column":    docPred(t, s, expr.NewBinary(expr.OpGe, col("name"), expr.NewConst(types.NewString("c")))),
		"on an unprojected column": docPred(t, s, expr.NewBinary(expr.OpGt, col("weight"), expr.NewConst(types.NewFloat(61)))),
	}
	projections := map[string][]int{
		"all":       nil,
		"subset":    {1, 2},
		"reordered": {2, 0, 1},
		"repeated":  {1, 1, 0},
		"empty":     {},
	}
	for fname, filter := range filters {
		for pname, cols := range projections {
			q := source.NewScan("patients")
			q.Filter, q.Columns = filter, cols
			want, err := referenceExecute(s, q)
			if err != nil {
				t.Fatal(err)
			}
			it, err := s.Execute(ctx, q)
			if err != nil {
				t.Fatalf("filter %s, columns %s: %v", fname, pname, err)
			}
			got, err := source.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("filter %s, columns %s: %d rows, reference has %d", fname, pname, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) || len(got[i]) != len(want[i]) {
					t.Fatalf("filter %s, columns %s: row %d = %v, reference %v", fname, pname, i, got[i], want[i])
				}
			}
		}
	}
}

func TestExecuteErrorsMatchReference(t *testing.T) {
	s := newTestDocs(t)
	if err := s.InsertJSON("patients", `{"id": "seven", "name": "hal", "vitals": {"weight": [1]}}`); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{nil, {0}, {1, 0}} {
		q := source.NewScan("patients")
		q.Columns = cols
		_, want := referenceExecute(s, q)
		// The scan is opened, and fails at the document: after the four
		// rows before it, with the reference's error, which names the
		// store.
		it, err := s.Execute(ctx, q)
		if err != nil {
			t.Fatalf("columns %v: %v", cols, err)
		}
		rows, got := source.Drain(it)
		if want == nil || got == nil || got.Error() != want.Error() || len(rows) != 4 || !strings.HasPrefix(got.Error(), "docstore docs1: ") {
			t.Errorf("columns %v: %d rows and error %v, reference %v", cols, len(rows), got, want)
		}
	}
	// A field the statement does not read is not extracted, so what is
	// wrong with it goes unreported: the reference, which extracts every
	// field, fails here.
	q := source.NewScan("patients")
	q.Columns = []int{1}
	if _, err := referenceExecute(s, q); err == nil {
		t.Fatal("reference must fail on the unread field")
	}
	it, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatalf("a bad value in a field that is not read: %v", err)
	}
	if rows, _ := source.Drain(it); len(rows) != 5 {
		t.Errorf("%d rows, want 5", len(rows))
	}
}

func TestExecuteRejectsProjectionOutOfRangeOnEmptyCollection(t *testing.T) {
	s := New("d")
	fm := []FieldMap{{Column: types.Column{Name: "x", Type: types.KindInt}, Path: "x"}}
	if err := s.CreateCollection("c", fm); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{1}, {-1}, {0, 7}} {
		q := source.NewScan("c")
		q.Columns = cols
		_, err := s.Execute(ctx, q)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("columns %v on an empty collection: %v, want an out-of-range error", cols, err)
		}
	}
}

// failingWrites is a collection whose fourth document cannot be
// extracted: a = 1, 2, 3, [1].
func failingWrites(t *testing.T) (*Store, expr.Expr) {
	t.Helper()
	s := New("d")
	fm := []FieldMap{{Column: types.Column{Name: "a", Type: types.KindInt}, Path: "a"}}
	if err := s.CreateCollection("c", fm); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{`{"a": 1}`, `{"a": 2}`, `{"a": 3}`, `{"a": [1]}`} {
		if err := s.InsertJSON("c", d); err != nil {
			t.Fatal(err)
		}
	}
	return s, expr.NewBoundColRef(0, types.KindInt, "a")
}

func wantDocs(t *testing.T, s *Store, want ...any) {
	t.Helper()
	c := s.collections["c"]
	var got []any
	for _, doc := range c.docs {
		got = append(got, c.keys.decode(doc)["a"])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("documents = %v, want %v", got, want)
	}
}

func TestFailedDeleteLeavesCollectionUnchanged(t *testing.T) {
	s, a := failingWrites(t)
	n, err := s.Delete(ctx, "c", expr.NewBinary(expr.OpEq, a, expr.NewConst(types.NewInt(2))))
	if err == nil || n != 0 {
		t.Fatalf("delete = %d, %v; want 0 and the fourth document's error", n, err)
	}
	wantDocs(t, s, 1.0, 2.0, 3.0, []any{1.0})
}

func TestFailedUpdateLeavesCollectionUnchanged(t *testing.T) {
	s, a := failingWrites(t)
	set := []source.SetClause{{Col: 0, Value: expr.NewBinary(expr.OpAdd, a, expr.NewConst(types.NewInt(10)))}}
	n, err := s.Update(ctx, "c", nil, set)
	if err == nil || n != 0 {
		t.Fatalf("update = %d, %v; want 0 and the fourth document's error", n, err)
	}
	wantDocs(t, s, 1.0, 2.0, 3.0, []any{1.0})

	// The same statement succeeds once the bad document is gone, and
	// each SET value is computed from the document as it was.
	s.collections["c"].docs = s.collections["c"].docs[:3]
	if n, err := s.Update(ctx, "c", expr.NewBinary(expr.OpGe, a, expr.NewConst(types.NewInt(2))), set); err != nil || n != 2 {
		t.Fatalf("update = %d, %v; want 2", n, err)
	}
	wantDocs(t, s, 1.0, 12.0, 13.0)
	if n, err := s.Delete(ctx, "c", expr.NewBinary(expr.OpEq, a, expr.NewConst(types.NewInt(12)))); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v; want 1", n, err)
	}
	wantDocs(t, s, 1.0, 13.0)
}

// An INSERT stores all of its rows or none: the second row below sets a
// and then a.b, which needs a to be an object, so the first row, which
// encodes, is not stored either. A value is stored as the kind its
// column declares — "7" as 7 — or refused.
func TestFailedInsertLeavesCollectionUnchanged(t *testing.T) {
	s := New("d")
	fm := []FieldMap{
		{Column: types.Column{Name: "a", Type: types.KindInt, Nullable: true}, Path: "a"},
		{Column: types.Column{Name: "ab", Type: types.KindInt, Nullable: true}, Path: "a.b"},
	}
	if err := s.CreateCollection("c", fm); err != nil {
		t.Fatal(err)
	}
	n, err := s.Insert(ctx, "c", []types.Row{{types.Null, types.NewInt(1)}, {types.NewInt(5), types.NewInt(2)}})
	if err == nil || !strings.Contains(err.Error(), "collides with a scalar") || n != 0 {
		t.Fatalf("insert = %d, %v; want 0 and the second row's collision", n, err)
	}
	wantDocs(t, s)
	if n, err := s.Insert(ctx, "c", []types.Row{{types.NewString("7"), types.Null}}); err != nil || n != 1 {
		t.Fatalf("insert of \"7\" into an INT = %d, %v; want 1", n, err)
	}
	if n, err := s.Insert(ctx, "c", []types.Row{{types.NewString("abc"), types.Null}}); err == nil || n != 0 {
		t.Fatalf("insert of \"abc\" into an INT = %d, %v; want it refused", n, err)
	}
	wantDocs(t, s, 7.0)
}

// An UPDATE whose SET cannot be written to one of the documents it hits
// — the third has a scalar where the path needs an object — changes
// none of them; one that can rewrites the paths it sets and keeps the
// rest of each document, fields no mapping names included; and a scan
// opened before it reads the documents it replaced, to the end.
func TestUpdateWritesCopies(t *testing.T) {
	s := New("d")
	fm := []FieldMap{
		{Column: types.Column{Name: "oid", Type: types.KindInt}, Path: "oid"},
		{Column: types.Column{Name: "cust_id", Type: types.KindInt, Nullable: true}, Path: "cust.id"},
		{Column: types.Column{Name: "tier", Type: types.KindString, Nullable: true}, Path: "cust.tier"},
	}
	if err := s.CreateCollection("c", fm); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"oid": 1, "cust": {"id": 10, "tier": "gold"}}`,
		`{"oid": 2}`,
		`{"oid": 3, "cust": 5}`,
		`{"oid": 4, "cust": {"id": 40}, "note": {"k": [1, 2]}}`,
	}
	collection := func() string {
		c := s.collections["c"]
		decoded := make([]map[string]any, len(c.docs))
		for i, doc := range c.docs {
			decoded[i] = c.keys.decode(doc)
		}
		out, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, d := range docs {
		if err := s.InsertJSON("c", d); err != nil {
			t.Fatal(err)
		}
	}
	before := collection()
	oid := expr.NewBoundColRef(0, types.KindInt, "oid")
	set := []source.SetClause{{Col: 1, Value: expr.NewBinary(expr.OpMul, oid, expr.NewConst(types.NewInt(100)))}}
	n, err := s.Update(ctx, "c", nil, set)
	if err == nil || !strings.Contains(err.Error(), "collides with a scalar") || n != 0 {
		t.Fatalf("SET cust.id over a document whose cust is 5: %d rows, %v", n, err)
	}
	if got := collection(); got != before {
		t.Errorf("the failed update left\n%s\nthe collection was\n%s", got, before)
	}
	// Without the third document the statement goes through, under a
	// scan that has read one row.
	scan := func() source.RowIter {
		it, err := s.Execute(ctx, source.NewScan("c"))
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	old, err := source.Drain(scan())
	if err != nil {
		t.Fatal(err)
	}
	held := scan()
	first, err := held.Next()
	if err != nil {
		t.Fatal(err)
	}
	notThird := expr.NewBinary(expr.OpNe, oid, expr.NewConst(types.NewInt(3)))
	if n, err := s.Update(ctx, "c", notThird, set); err != nil || n != 3 {
		t.Fatalf("update = %d, %v; want 3", n, err)
	}
	rest, err := source.Drain(held)
	if err != nil {
		t.Fatal(err)
	}
	identical := func(a, b types.Row) bool { return slices.EqualFunc(a, b, types.Identical) }
	if got := append([]types.Row{first}, rest...); !slices.EqualFunc(got, old, identical) {
		t.Errorf("a scan opened before the update read %v, the documents were %v", got, old)
	}
	want := `[{"cust":{"id":100,"tier":"gold"},"oid":1},{"cust":{"id":200},"oid":2},{"cust":5,"oid":3},{"cust":{"id":400},"note":{"k":[1,2]},"oid":4}]`
	if got := collection(); got != want {
		t.Errorf("collection =\n%s\nwant\n%s", got, want)
	}
}

// A scan borrows the collection: lent its rows it allocates the same
// objects and the same bytes over 2 048 documents and over 4 096.
func TestLentScanAllocsDoNotGrowPerRow(t *testing.T) {
	q := benchQuery()
	measure := func(s *Store, want int) (objects, bytes uint64) {
		return source.Allocations(func() {
			if got := benchScan(t, s, q, true); got != want {
				t.Fatalf("%d rows, want %d", got, want)
			}
		})
	}
	objA, bytesA := measure(benchOrders(t, 2050), 410)
	objB, bytesB := measure(benchOrders(t, 4100), 820)
	if objA != objB || bytesA != bytesB {
		t.Errorf("%v objects and %d B over 2 050 documents, %v and %d B over 4 100", objA, bytesA, objB, bytesB)
	}
	// The iterator, its mask of fields, its scratch row, the lent row.
	if objA > 4 {
		t.Errorf("%v objects a scan", objA)
	}
}

// benchOrders is a collection of n nested documents of four mapped
// fields.
func benchOrders(tb testing.TB, n int) *Store {
	tb.Helper()
	s := New("bench")
	err := s.CreateCollection("orders", []FieldMap{
		{Column: types.Column{Name: "id", Type: types.KindInt}, Path: "id"},
		{Column: types.Column{Name: "cust", Type: types.KindInt}, Path: "customer.id"},
		{Column: types.Column{Name: "region", Type: types.KindString}, Path: "customer.address.region"},
		{Column: types.Column{Name: "amount", Type: types.KindFloat}, Path: "totals.amount"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west", "mid"}
	for i := 0; i < n; i++ {
		err := s.InsertDoc("orders", map[string]any{
			"id":       float64(i),
			"customer": map[string]any{"id": float64(i % 997), "address": map[string]any{"region": regions[i%len(regions)]}},
			"totals":   map[string]any{"amount": float64(i%1000) + 0.25},
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// benchQuery filters on one field, which a fifth of the documents pass,
// and projects two others.
func benchQuery() *source.Query {
	q := source.NewScan("orders")
	q.Filter = expr.NewBinary(expr.OpEq, expr.NewBoundColRef(2, types.KindString, "region"), expr.NewConst(types.NewString("east")))
	q.Columns = []int{0, 3}
	return q
}

// benchScan runs q as a consumer that keeps its rows or, lent, as one
// that asks to be lent them, and counts them.
func benchScan(tb testing.TB, s *Store, q *source.Query, lent bool) int {
	it, err := s.Execute(ctx, q)
	if err != nil {
		tb.Fatal(err)
	}
	if lent {
		source.Use(it, source.Lent)
	}
	n := 0
	for ; err == nil; n++ {
		_, err = it.Next()
	}
	if err != io.EOF {
		tb.Fatal(err)
	}
	return n - 1
}

// BenchmarkScanFilterProject is the wrapper's whole job on one
// statement: 20 000 nested documents of four mapped fields, a filter on
// one of them that a fifth pass, two others projected — read by a
// consumer that keeps the rows and by one that is lent them.
func BenchmarkScanFilterProject(b *testing.B) {
	s, q := benchOrders(b, 20000), benchQuery()
	for _, lent := range []bool{false, true} {
		b.Run(map[bool]string{false: "kept", true: "lent"}[lent], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := benchScan(b, s, q, lent); n != 4000 {
					b.Fatalf("%d rows", n)
				}
			}
		})
	}
}

// heteroFields and heteroDoc are the benchmark's hetero_local orders
// collection: cust_id nested at cust.id, amounts multiples of 0.25.
var heteroFields = []FieldMap{
	{Column: types.Column{Name: "oid", Type: types.KindInt}, Path: "oid"},
	{Column: types.Column{Name: "cust_id", Type: types.KindInt}, Path: "cust.id"},
	{Column: types.Column{Name: "amount", Type: types.KindFloat}, Path: "amount"},
	{Column: types.Column{Name: "region", Type: types.KindString}, Path: "region"},
}

func heteroDoc(i int) map[string]any {
	regions := [...]string{"north", "south", "east", "west"}
	return map[string]any{"oid": float64(i), "cust": map[string]any{"id": float64(i % 2000)},
		"amount": float64(i*7919%400000) / 4, "region": regions[i%len(regions)]}
}

// TestDocBytesPerDocument holds what a stored document costs the heap:
// 20 000 documents of hetero_local's shape are one string each, of 45
// bytes (48 B size class) and its 16 B header in the collection's slice.
func TestDocBytesPerDocument(t *testing.T) {
	const n, ceiling = 20000, 96.0
	s := New("bytes")
	if err := s.CreateCollection("orders", heteroFields); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.InsertDoc("orders", heteroDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	delete(s.collections, "orders")
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(s)
	perDoc := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / n
	t.Logf("a stored document holds %.1f B", perDoc)
	if perDoc > ceiling {
		t.Errorf("a stored document holds %.1f B, want at most %.1f", perDoc, ceiling)
	}
}

// BenchmarkLoadDocs is set-up's share of the wrapper: 20 000 InsertDoc
// calls of hetero_local's shape into an empty collection.
func BenchmarkLoadDocs(b *testing.B) {
	docs := make([]map[string]any, 20000)
	for i := range docs {
		docs[i] = heteroDoc(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New("load")
		if err := s.CreateCollection("orders", heteroFields); err != nil {
			b.Fatal(err)
		}
		for _, doc := range docs {
			if err := s.InsertDoc("orders", doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
