package source

import (
	"fmt"
	"math/rand"
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

// evalDesired filters and projects rows directly — the reference
// semantics Split must preserve.
func evalDesired(t *testing.T, rows []types.Row, columns []int, filter expr.Expr) []types.Row {
	t.Helper()
	out, err := ApplyResidual(rows, &Query{Columns: columns, Filter: filter, Limit: -1})
	if err != nil {
		t.Fatalf("evalDesired: %v", err)
	}
	return out
}

// evalSplit runs the pushed query against rows (simulating a source that
// honors exactly the pushed fragment), then applies the residual.
func evalSplit(t *testing.T, rows []types.Row, pushed *Query, res Residual) []types.Row {
	t.Helper()
	mid, err := ApplyResidual(rows, pushed)
	if err != nil {
		t.Fatalf("source side: %v", err)
	}
	out, err := ApplyResidual(mid, &Query{Columns: res.Project, Filter: res.Filter, Limit: -1})
	if err != nil {
		t.Fatalf("mediator side: %v", err)
	}
	return out
}

func sameRowSet(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, ra := range a {
		for j, rb := range b {
			if !used[j] && ra.Equal(rb) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

func bindFilter(t *testing.T, e expr.Expr) expr.Expr {
	t.Helper()
	b, err := expr.Bind(e, splitSchema)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return b
}

func TestSplitFullCapabilityPushesEverything(t *testing.T) {
	caps := Capabilities{Filter: FilterFull, Project: true, Aggregate: true, Sort: true, Limit: true}
	filter := bindFilter(t, expr.NewBinary(expr.OpGt, expr.NewColRef("", "val"), expr.NewConst(types.NewFloat(3))))
	pushed, res := Split("t", []int{0, 2}, filter, caps, splitInfo)
	if !res.Empty() {
		t.Errorf("full caps must leave no residual, got %+v", res)
	}
	if pushed.Filter == nil || pushed.Columns == nil {
		t.Errorf("pushed = %+v", pushed)
	}
	if pushed.HasAggregation() || len(pushed.OrderBy) > 0 || pushed.Limit != -1 {
		t.Errorf("Split negotiates a filter and a projection only, pushed = %+v", pushed)
	}
}

func TestSplitNoCapabilityPushesNothing(t *testing.T) {
	filter := bindFilter(t, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a"))))
	pushed, res := Split("t", []int{1}, filter, Capabilities{}, splitInfo)
	if pushed.Filter != nil || pushed.Columns != nil || pushed.Limit != -1 {
		t.Errorf("pushed must be bare scan, got %+v", pushed)
	}
	if res.Filter == nil || res.Project == nil {
		t.Errorf("residual = %+v", res)
	}
	rows := splitRows()
	want := evalDesired(t, rows, []int{1}, filter)
	got := evalSplit(t, rows, pushed, res)
	if !sameRowSet(want, got) {
		t.Errorf("split result %v != direct %v", got, want)
	}
}

func TestSplitKeyFilter(t *testing.T) {
	caps := Capabilities{Filter: FilterKey}
	keyPred := expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(5)))
	nonKeyPred := expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a")))
	filter := bindFilter(t, expr.NewBinary(expr.OpAnd, keyPred, nonKeyPred))
	pushed, res := Split("t", nil, filter, caps, splitInfo)
	if pushed.Filter == nil {
		t.Fatal("key predicate must push")
	}
	if res.Filter == nil {
		t.Fatal("non-key predicate must stay residual")
	}
	rows := splitRows()
	if !sameRowSet(evalDesired(t, rows, nil, filter), evalSplit(t, rows, pushed, res)) {
		t.Error("key split not equivalent")
	}
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

func TestSplitProjectionWithResidualFilter(t *testing.T) {
	// Project pushdown must still ship the columns the residual filter
	// needs, then cut them at the mediator.
	caps := Capabilities{Filter: FilterNone, Project: true}
	filter := bindFilter(t, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("b"))))
	pushed, res := Split("t", []int{2}, filter, caps, splitInfo)
	if len(pushed.Columns) != 2 {
		t.Errorf("pushed cols = %v, want cat and val", pushed.Columns)
	}
	rows := splitRows()
	want := evalDesired(t, rows, []int{2}, filter)
	got := evalSplit(t, rows, pushed, res)
	if !sameRowSet(want, got) {
		t.Errorf("projection split: %v != %v", got, want)
	}
}

// TestSplitEquivalenceProperty fuzzes desired filters and projections ×
// capability vectors and checks Split∘Apply ≡ direct evaluation.
func TestSplitEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := splitRows()
	idIn := func(vs ...int64) expr.Expr {
		in := &expr.InList{E: expr.NewColRef("", "id")}
		for _, v := range vs {
			in.List = append(in.List, expr.NewConst(types.NewInt(v)))
		}
		return in
	}
	for trial := 0; trial < 500; trial++ {
		caps := Capabilities{
			Filter:    FilterCap(rng.Intn(3)),
			Project:   rng.Intn(2) == 0,
			Aggregate: rng.Intn(2) == 0,
			Sort:      rng.Intn(2) == 0,
			Limit:     rng.Intn(2) == 0,
		}
		// Random filter: key pred, non-key pred, both, a key IN list, or
		// none.
		var filter expr.Expr
		switch rng.Intn(6) {
		case 0:
			filter = bindFilter(t, expr.NewBinary(expr.OpLe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(int64(rng.Intn(8))))))
		case 1:
			filter = bindFilter(t, expr.NewBinary(expr.OpEq, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("a"))))
		case 2:
			filter = bindFilter(t, expr.NewBinary(expr.OpAnd,
				expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(2))),
				expr.NewBinary(expr.OpNe, expr.NewColRef("", "cat"), expr.NewConst(types.NewString("c")))))
		case 3:
			filter = bindFilter(t, idIn(int64(rng.Intn(8)), 3, int64(rng.Intn(8))))
		case 4:
			filter = bindFilter(t, expr.NewBinary(expr.OpAnd, idIn(1, 2, 5, 6),
				expr.NewBinary(expr.OpGt, expr.NewColRef("", "val"), expr.NewConst(types.NewFloat(2)))))
		}
		var columns []int
		switch rng.Intn(3) {
		case 0:
			columns = []int{2, 0}
		case 1:
			columns = []int{1}
		}
		pushed, res := Split("t", columns, filter, caps, splitInfo)
		if pushed.HasAggregation() || len(pushed.OrderBy) > 0 || pushed.Limit != -1 {
			t.Fatalf("trial %d: caps=%v pushed %s", trial, caps, pushed)
		}
		want := evalDesired(t, rows, columns, filter)
		got := evalSplit(t, rows, pushed, res)
		if !sameRowSet(want, got) {
			t.Fatalf("trial %d: caps=%v columns=%v filter=%v\n got %v\nwant %v", trial, caps, columns, filter, got, want)
		}
	}
}

func TestQueryOutputSchema(t *testing.T) {
	q := NewScan("t")
	s, err := q.OutputSchema(splitSchema)
	if err != nil || s.Len() != 3 {
		t.Errorf("scan schema = %v, %v", s, err)
	}
	q = &Query{Table: "t", Columns: []int{2, 0}, Limit: -1}
	s, err = q.OutputSchema(splitSchema)
	if err != nil || s.Columns[0].Name != "val" || s.Columns[1].Name != "id" {
		t.Errorf("projected schema = %v, %v", s, err)
	}
	q = &Query{Table: "t", GroupBy: []int{1}, Aggs: []AggSpec{{Kind: expr.AggSum, Col: 2}}, Limit: -1}
	s, err = q.OutputSchema(splitSchema)
	if err != nil || s.Len() != 2 || s.Columns[1].Type != types.KindFloat {
		t.Errorf("agg schema = %v, %v", s, err)
	}
	q = &Query{Table: "t", Columns: []int{9}, Limit: -1}
	if _, err = q.OutputSchema(splitSchema); err == nil {
		t.Error("out-of-range column must error")
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
