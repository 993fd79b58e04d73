package source

import (
	"fmt"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

// testTable: (id INT, cat STRING, val FLOAT) with id as key column.
var splitSchema = types.NewSchema(
	types.Column{Name: "id", Type: types.KindInt},
	types.Column{Name: "cat", Type: types.KindString},
	types.Column{Name: "val", Type: types.KindFloat},
)

var splitInfo = &TableInfo{Schema: splitSchema, KeyColumns: []int{0}, RowCount: 8}

func splitRows() []types.Row {
	cats := []string{"a", "b", "c"}
	rows := make([]types.Row, 8)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(cats[i%3]),
			types.NewFloat(float64(i) * 1.5),
		}
	}
	return rows
}

func bindFilter(t *testing.T, e expr.Expr) expr.Expr {
	t.Helper()
	b, err := expr.Bind(e, splitSchema)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return b
}

// TestCanFilterKeyShapes pins what a FilterKey source is sent: a
// comparison of a key column with a constant, either way round, or the
// key IN a list of constants — the predicate a semijoin ships, so
// CanCompare answers the strategy chooser for the same column.
func TestCanFilterKeyShapes(t *testing.T) {
	caps := Capabilities{Filter: FilterKey}
	id, cat := expr.NewColRef("", "id"), expr.NewColRef("", "cat")
	one, two := expr.NewConst(types.NewInt(1)), expr.NewConst(types.NewFloat(2))
	for _, c := range []struct {
		e    expr.Expr
		want bool
	}{
		{expr.NewBinary(expr.OpEq, id, one), true},
		{expr.NewBinary(expr.OpGe, one, id), true},
		{&expr.InList{E: id, List: []expr.Expr{one, one, two, expr.NewConst(types.Null)}}, true},
		{&expr.InList{E: id, List: []expr.Expr{one}, Negate: true}, false},
		{&expr.InList{E: id, List: []expr.Expr{one, expr.NewBinary(expr.OpAdd, id, one)}}, false},
		{&expr.InList{E: cat, List: []expr.Expr{expr.NewConst(types.NewString("a"))}}, false},
		{expr.NewBinary(expr.OpNe, id, one), false},
		{expr.NewBinary(expr.OpEq, id, id), false},
		{expr.NewBinary(expr.OpEq, expr.NewBinary(expr.OpAdd, id, one), two), false},
		{&expr.IsNull{E: id}, false},
	} {
		if got := caps.CanFilter(splitInfo, bindFilter(t, c.e)); got != c.want {
			t.Errorf("CanFilter(%s) = %v, want %v", c.e, got, c.want)
		}
	}
	if !caps.CanCompare(splitInfo, 0) || caps.CanCompare(splitInfo, 1) || caps.CanCompare(splitInfo, -1) {
		t.Error("a FilterKey source compares its key columns and nothing else")
	}
	if full := (Capabilities{Filter: FilterFull}); !full.CanCompare(splitInfo, 1) || !full.CanCompare(splitInfo, -1) {
		t.Error("a FilterFull source evaluates any predicate")
	}
	if (Capabilities{}).CanCompare(splitInfo, 0) {
		t.Error("a FilterNone source evaluates no predicate")
	}
}

// TestQueryCheck: what a query may address is decided by the table's
// width, the output's width and the source's capabilities — and a query
// that passes is checked for nothing, in allocations.
func TestQueryCheck(t *testing.T) {
	everything := Capabilities{Filter: FilterFull, Project: true, Aggregate: true, Sort: true, Limit: true}
	filter := expr.NewBinary(expr.OpGt, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(3)))
	count := AggSpec{Kind: expr.AggCount, Col: -1, Star: true}
	for _, c := range []struct {
		name string
		q    Query
		caps Capabilities
		ok   bool
	}{
		{"scan", Query{Limit: -1}, Capabilities{}, true},
		{"everything", Query{Filter: filter, GroupBy: []int{1}, Aggs: []AggSpec{count, {Kind: expr.AggAvg, Col: 2}},
			OrderBy: []OrderSpec{{Col: 2}}, Limit: 5}, everything, true},
		{"projection, ordered by its last column", Query{Columns: []int{2, 0}, OrderBy: []OrderSpec{{Col: 1}}, Limit: -1}, everything, true},
		{"empty projection", Query{Columns: []int{}, Limit: -1}, everything, true},
		{"key filter", Query{Filter: filter, Limit: -1}, Capabilities{Filter: FilterKey}, true},

		{"projection past the table", Query{Columns: []int{0, 3}, Limit: -1}, everything, false},
		{"negative projection", Query{Columns: []int{-1}, Limit: -1}, everything, false},
		{"group-by past the table", Query{GroupBy: []int{99}, Limit: -1}, everything, false},
		{"aggregate past the table", Query{Aggs: []AggSpec{{Kind: expr.AggSum, Col: 99}}, Limit: -1}, everything, false},
		{"unknown aggregate", Query{Aggs: []AggSpec{{Kind: expr.AggAvg + 1, Col: 0}}, Limit: -1}, everything, false},
		{"order-by past the table", Query{OrderBy: []OrderSpec{{Col: 99}}, Limit: -1}, everything, false},
		{"order-by past the projection", Query{Columns: []int{0}, OrderBy: []OrderSpec{{Col: 1}}, Limit: -1}, everything, false},
		{"order-by past the groups", Query{GroupBy: []int{1}, Aggs: []AggSpec{count}, OrderBy: []OrderSpec{{Col: 2}}, Limit: -1}, everything, false},
		{"limit below none", Query{Limit: -2}, everything, false},

		{"filter, source scans only", Query{Filter: filter, Limit: -1}, Capabilities{Project: true}, false},
		{"projection, source cannot", Query{Columns: []int{0}, Limit: -1}, Capabilities{Filter: FilterFull}, false},
		{"aggregate, source cannot", Query{Aggs: []AggSpec{count}, Limit: -1}, Capabilities{Filter: FilterFull, Project: true}, false},
		{"sort, source cannot", Query{OrderBy: []OrderSpec{{Col: 0}}, Limit: -1}, Capabilities{Filter: FilterFull, Project: true}, false},
		{"limit, source cannot", Query{Limit: 1}, Capabilities{Filter: FilterFull, Project: true}, false},
	} {
		c.q.Table = "t"
		err := c.q.Check(c.caps, splitInfo)
		if (err == nil) != c.ok {
			t.Errorf("%s: Check(%s) of %s = %v, want ok=%v", c.name, c.caps, &c.q, err, c.ok)
		}
		if !c.ok {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { _ = c.q.Check(c.caps, splitInfo) }); n != 0 {
			t.Errorf("%s: a passing Check allocates %v objects", c.name, n)
		}
	}
}

func TestSliceIterAndDrain(t *testing.T) {
	rows := splitRows()
	got, err := Drain(SliceIter(rows))
	if err != nil || len(got) != len(rows) {
		t.Errorf("Drain = %d rows, %v", len(got), err)
	}
	if _, err := Drain(failingIter{}); err == nil {
		t.Error("Drain must propagate the iterator's error")
	}
}

type failingIter struct{}

func (failingIter) Next() (types.Row, error) { return nil, fmt.Errorf("boom") }
func (failingIter) Close() error             { return nil }

func TestSortRowsStability(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(2), types.NewString("b")},
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("a")},
		{types.NewInt(1), types.NewString("b")},
	}
	SortRows(rows, []OrderSpec{{Col: 0}, {Col: 1, Desc: true}})
	want := []string{"1 b", "1 a", "2 b", "2 a"}
	for i, r := range rows {
		got := fmt.Sprintf("%v %v", r[0], r[1])
		if got != want[i] {
			t.Errorf("row %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestApplyResidualGlobalAggEmptyInput(t *testing.T) {
	q := &Query{
		Aggs:  []AggSpec{{Kind: expr.AggCount, Star: true}, {Kind: expr.AggSum, Col: 0}},
		Limit: -1,
	}
	out, err := ApplyResidual(nil, q)
	if err != nil || len(out) != 1 {
		t.Fatalf("global agg over empty = %v, %v", out, err)
	}
	if out[0][0].Int() != 0 || !out[0][1].IsNull() {
		t.Errorf("empty agg row = %v", out[0])
	}
}

func TestCapabilitiesString(t *testing.T) {
	c := Capabilities{Filter: FilterFull, Project: true, Txn: true}
	s := c.String()
	if s != "filter=full+project+txn" {
		t.Errorf("caps string = %q", s)
	}
}
