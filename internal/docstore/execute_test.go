package docstore

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// referenceExecute is Execute done the plain way: every field of every
// document extracted (the path cut at its dots per lookup), then the
// filter, then the projection, one fresh row per step.
func referenceExecute(s *Store, q *source.Query) ([]types.Row, error) {
	c := s.collections[q.Table]
	var out []types.Row
	for _, doc := range c.docs {
		row := make(types.Row, len(c.fields))
		for i, f := range c.fields {
			cur, found := any(doc), true
			for rest, more := f.Path, true; more && found; {
				var part string
				part, rest, more = strings.Cut(rest, ".")
				m, isMap := cur.(map[string]any)
				if found = isMap; isMap {
					cur, found = m[part]
				}
			}
			if !found || cur == nil {
				continue
			}
			v, err := fromJSON(cur)
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
		_, got := s.Execute(ctx, q)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("columns %v: error %v, reference %v", cols, got, want)
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
	var got []any
	for _, doc := range s.collections["c"].docs {
		got = append(got, doc["a"])
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

// BenchmarkScanFilterProject is the wrapper's whole job on one
// statement: 20 000 nested documents of four mapped fields, a filter on
// one of them that a fifth pass, two others projected.
func BenchmarkScanFilterProject(b *testing.B) {
	s := New("bench")
	err := s.CreateCollection("orders", []FieldMap{
		{Column: types.Column{Name: "id", Type: types.KindInt}, Path: "id"},
		{Column: types.Column{Name: "cust", Type: types.KindInt}, Path: "customer.id"},
		{Column: types.Column{Name: "region", Type: types.KindString}, Path: "customer.address.region"},
		{Column: types.Column{Name: "amount", Type: types.KindFloat}, Path: "totals.amount"},
	})
	if err != nil {
		b.Fatal(err)
	}
	regions := []string{"north", "south", "east", "west", "mid"}
	for i := 0; i < 20000; i++ {
		err := s.InsertDoc("orders", map[string]any{
			"id":       float64(i),
			"customer": map[string]any{"id": float64(i % 997), "address": map[string]any{"region": regions[i%len(regions)]}},
			"totals":   map[string]any{"amount": float64(i%1000) + 0.25},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	q := source.NewScan("orders")
	q.Filter = expr.NewBinary(expr.OpEq, expr.NewBoundColRef(2, types.KindString, "region"), expr.NewConst(types.NewString("east")))
	q.Columns = []int{0, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := s.Execute(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; err == nil; n++ {
			_, err = it.Next()
		}
		if err != io.EOF || n-1 != 4000 {
			b.Fatalf("%d rows, %v", n-1, err)
		}
	}
}
