package exec

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// A fragment scan is defined by what it stands for: the fragment's
// table, every row translated into the global representation, filtered
// by the query's predicate and projected to the query's columns. What
// the source is asked and what the mediator does itself must add up to
// that for every capability vector, and the tests below compare
// buildFragScan + runFragScan with the definition evaluated the plain
// way (source.ApplyResidual over the translated table).

// scanFed is one remote table behind a refSource of the given
// capabilities and one global table over it that maps a column every way
// there is, in another order than the remote table's.
type scanFed struct {
	cat    *catalog.Catalog
	tab    *catalog.GlobalTable
	remote []types.Row
	// translated is the definition's table.
	translated []types.Row
}

// The global table's columns.
const (
	gN = iota
	gK
	gUsd
	gRegion
	gSite
	gFlipped
	gI
	gGrade
	gF
)

func newScanFed(t testing.TB, caps source.Capabilities, n int) *scanFed {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	null := func(name string, k types.Kind) types.Column { return types.Column{Name: name, Type: k, Nullable: true} }
	remote := types.NewSchema(intCol("k"), intCol("cents"), null("code", types.KindString),
		types.Column{Name: "neg", Type: types.KindFloat}, null("i", types.KindInt), strCol("tier"), intCol("n"))
	global := types.NewSchema(strCol("n"), intCol("k"), types.Column{Name: "usd", Type: types.KindFloat},
		null("region", types.KindString), strCol("site"), types.Column{Name: "flipped", Type: types.KindFloat},
		null("i", types.KindInt), strCol("grade"), null("f", types.KindFloat))
	f := &scanFed{cat: catalog.New(), remote: make([]types.Row, n)}
	for i := range f.remote {
		code, some := types.NewString("1234"[i%4:i%4+1]), types.NewInt(int64(i%10))
		if i%11 == 0 {
			code = types.Null
		}
		if i%7 == 0 {
			some = types.Null
		}
		f.remote[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7 % 2000)), code,
			types.NewFloat(float64(i%13) - 6.5), some, types.NewString("abcd"[i%4 : i%4+1]), types.NewInt(int64(i % 50))}
	}
	src := &refSource{caps: caps, rows: f.remote,
		info: &source.TableInfo{Schema: remote, KeyColumns: []int{0}, RowCount: int64(n)}}
	must(f.cat.AddSource(src))
	must(f.cat.DefineTable("g", global))
	site := types.NewString("hq")
	frag := &catalog.Fragment{Source: "ref", RemoteTable: "readings", Columns: []catalog.ColumnMapping{
		gN:       {RemoteCol: 6}, // STRING over INT
		gK:       {RemoteCol: 0},
		gUsd:     {RemoteCol: 1, Scale: 0.01},
		gRegion:  {RemoteCol: 2, ValueMap: map[string]string{"1": "north", "2": "south", "3": "east", "4": "west"}}, // codes sort otherwise
		gSite:    {RemoteCol: -1, Const: &site},
		gFlipped: {RemoteCol: 3, Scale: -2, Offset: 1},
		gI:       {RemoteCol: 4},
		gGrade:   {RemoteCol: 5, ValueMap: map[string]string{"a": "low", "b": "low", "c": "high"}}, // not a bijection
		gF:       {RemoteCol: 4},                                                                   // FLOAT over INT, and i's remote column again
	}}
	must(f.cat.MapFragment(ctx, "g", frag))
	var err error
	f.tab, err = f.cat.Table("g")
	must(err)
	all := make([]int, global.Len())
	for i := range all {
		all[i] = i
	}
	pos := make([]int, len(all)) // whole remote rows: each column at its remote position
	for i, m := range frag.Columns {
		pos[i] = m.RemoteCol
	}
	f.translated = make([]types.Row, n)
	for i, r := range f.remote {
		f.translated[i] = make(types.Row, len(all))
		must(frag.TranslateInto(f.translated[i], global, all, pos, r))
	}
	return f
}

// plan plans the scan of cols filtered by pred (unbound, over the global
// table's names; nil for none).
func (f *scanFed) plan(t testing.TB, cols []int, pred expr.Expr) (plan.Node, expr.Expr) {
	t.Helper()
	var bound expr.Expr
	if pred != nil {
		var err error
		if bound, err = expr.Bind(pred, f.tab.Schema); err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
	}
	n, err := plan.Optimize(ctx, &plan.GlobalScan{Table: f.tab, Cols: cols, Filter: bound}, f.cat, nil)
	if err != nil {
		t.Fatalf("%s: %v", pred, err)
	}
	return n, bound
}

// scan is plan where the plan must be a fragment scan.
func (f *scanFed) scan(t testing.TB, cols []int, pred expr.Expr) (*plan.FragScan, expr.Expr) {
	t.Helper()
	n, bound := f.plan(t, cols, pred)
	fs, ok := n.(*plan.FragScan)
	if !ok {
		t.Fatalf("%s: planned as\n%s", pred, plan.Explain(n))
	}
	return fs, bound
}

// check runs the scan of cols filtered by pred for a consumer that keeps
// its rows and for one that is lent them, and wants from both the rows
// of the definition, each value of its column's kind. A fragment pruned
// at planning (an empty Values) must be one the definition takes no
// row of.
func (f *scanFed) check(t *testing.T, cols []int, pred expr.Expr) {
	t.Helper()
	n, bound := f.plan(t, cols, pred)
	want, err := source.ApplyResidual(f.translated, &source.Query{Columns: cols, Filter: bound, Limit: -1})
	if err != nil {
		t.Fatalf("%s: the definition: %v", plan.Explain(n), err)
	}
	fs, ok := n.(*plan.FragScan)
	if !ok {
		if v, pruned := n.(*plan.Values); !pruned || len(v.Rows) > 0 || len(want) > 0 {
			t.Fatalf("cols %v where %v: planned as\n%sthe definition has %d rows", cols, pred, plan.Explain(n), len(want))
		}
		return
	}
	for _, lent := range []bool{false, true} {
		it, err := runFragScan(ctx, fs, nil)
		if err != nil {
			t.Fatalf("%s: %v", fs.Describe(), err)
		}
		lendIf(it, lent)
		drain := source.DrainOwned
		if lent {
			drain = source.DrainCopies
		}
		got, err := drain(it)
		if err != nil {
			t.Fatalf("%s (lent %v): %v", fs.Describe(), lent, err)
		}
		if len(got) != len(want) {
			t.Fatalf("cols %v where %v, %s (lent %v): %d rows, the definition has %d", cols, pred, fs.Describe(), lent, len(got), len(want))
		}
		for i, r := range got {
			if len(r) != len(cols) {
				t.Fatalf("cols %v where %v, %s (lent %v): row %d is %v", cols, pred, fs.Describe(), lent, i, r)
			}
			for j, v := range r {
				if k := fs.OutSchema.Columns[j].Type; !v.IsNull() && v.Kind() != k || v.Kind() != want[i][j].Kind() || !v.Equal(want[i][j]) {
					t.Fatalf("cols %v where %v, %s (lent %v): row %d is %v, the definition has %v (column %d is %s)",
						cols, pred, fs.Describe(), lent, i, r, want[i], j, k)
				}
			}
		}
	}
}

// atom writes one random predicate over the global table.
func (f *scanFed) atom(r *rand.Rand) expr.Expr {
	col := func(c int) expr.Expr { return expr.NewColRef("", f.tab.Schema.Columns[c].Name) }
	num := func(v float64) expr.Expr { return expr.NewConst(types.NewFloat(v)) }
	whole := func(v int) expr.Expr { return expr.NewConst(types.NewInt(int64(v))) }
	str := func(ss ...string) expr.Expr { return expr.NewConst(types.NewString(ss[r.Intn(len(ss))])) }
	cmp := func(l, c expr.Expr) expr.Expr {
		op := comparisons[r.Intn(len(comparisons))]
		if r.Intn(4) == 0 {
			op, _ = op.Commutes()
			return expr.NewBinary(op, c, l)
		}
		return expr.NewBinary(op, l, c)
	}
	// stored is a value some row holds in column c: a comparison with it
	// is decided at the boundary.
	stored := func(c int) expr.Expr { return expr.NewConst(f.translated[r.Intn(len(f.translated))][c]) }
	switch r.Intn(16) {
	case 0:
		return cmp(col(gK), whole(r.Intn(len(f.remote)+10)-5))
	case 1:
		return &expr.InList{E: col(gK), Negate: r.Intn(4) == 0,
			List: []expr.Expr{whole(r.Intn(len(f.remote))), whole(3), num(7), expr.NewConst(types.Null)}}
	case 2, 3:
		return cmp(col(gUsd), stored(gUsd))
	case 4:
		return cmp(col(gUsd), num(float64(r.Intn(2000))/100+0.005))
	case 5:
		return cmp(col(gFlipped), stored(gFlipped))
	case 6:
		return cmp(col(gRegion), str("north", "south", "1", "zzz"))
	case 7:
		return &expr.InList{E: col(gRegion), Negate: r.Intn(4) == 0, List: []expr.Expr{str("north", "east"), str("4", "west"), expr.NewConst(types.Null)}}
	case 8:
		return cmp(col(gSite), str("hq", "elsewhere"))
	case 9:
		return &expr.IsNull{E: col([]int{gI, gRegion, gF, gSite}[r.Intn(4)]), Negate: r.Intn(2) == 0}
	case 10:
		return cmp(col(gI), whole(r.Intn(10)))
	case 11:
		return cmp(col(gGrade), str("low", "high", "d", "a"))
	case 12:
		return cmp(col(gN), str("42", "5", "042", "7"))
	case 13:
		return cmp(col(gF), num(float64(r.Intn(20))/2))
	case 14:
		return cmp(expr.NewBinary(expr.OpAdd, col(gUsd), whole(0)), stored(gUsd))
	default:
		return expr.NewBinary(expr.OpEq, expr.NewBinary(expr.OpMod, col(gK), whole(2+r.Intn(3))), whole(r.Intn(2)))
	}
}

var comparisons = []expr.BinOp{expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpEq, expr.OpNe}

// capabilityClasses are the six vectors the filter and the projection
// are decided by.
func capabilityClasses() []source.Capabilities {
	var out []source.Capabilities
	for _, f := range []source.FilterCap{source.FilterNone, source.FilterKey, source.FilterFull} {
		for _, p := range []bool{false, true} {
			out = append(out, source.Capabilities{Filter: f, Project: p})
		}
	}
	return out
}

// TestFragScanIsItsDefinition: random conjunctions — over identity,
// value-mapped (bijective and not), unit-converted (either sign),
// constant and retyped columns, compared at stored values — and random
// column lists, repeated and reordered, often without the columns the
// predicate reads.
func TestFragScanIsItsDefinition(t *testing.T) {
	for ci, caps := range capabilityClasses() {
		f := newScanFed(t, caps, 150)
		r := rand.New(rand.NewSource(int64(28 + ci)))
		for i := 0; i < 250 && !t.Failed(); i++ {
			cols := make([]int, r.Intn(6))
			for j := range cols {
				cols[j] = r.Intn(f.tab.Schema.Len())
			}
			var conj []expr.Expr
			for n := r.Intn(4); n > 0; n-- {
				a := f.atom(r)
				if r.Intn(5) == 0 {
					a = expr.NewBinary(expr.OpOr, a, f.atom(r))
				}
				conj = append(conj, a)
			}
			f.check(t, cols, expr.Conjoin(conj))
		}
		// Every column in place, and nothing asked at all.
		all := make([]int, f.tab.Schema.Len())
		for i := range all {
			all[i] = i
		}
		f.check(t, all, nil)
		f.check(t, []int{gK, gI}, nil)
		f.check(t, []int{}, nil)
	}
}

// TestConjunctsAreDecidedOnce pins the rule itself on one statement: a
// conjunct the fragment's constant makes TRUE is dropped, another goes
// to the source iff it translates and the source evaluates the
// translation, and otherwise stays as written; the projection goes iff
// the source projects.
func TestConjunctsAreDecidedOnce(t *testing.T) {
	col := func(name string) expr.Expr { return expr.NewColRef("", name) }
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpLt, col("k"), expr.NewConst(types.NewInt(90))),              // a key comparison
		expr.NewBinary(expr.OpGe, col("usd"), expr.NewConst(types.NewFloat(0.07))),        // translates, boundary stepped
		expr.NewBinary(expr.OpEq, col("usd"), expr.NewConst(types.NewFloat(0.14))),        // no exact remote form
		expr.NewBinary(expr.OpEq, col("region"), expr.NewConst(types.NewString("north"))), // inverts
		expr.NewBinary(expr.OpGe, col("region"), expr.NewConst(types.NewString("north"))), // codes sort otherwise
		expr.NewBinary(expr.OpEq, col("grade"), expr.NewConst(types.NewString("low"))),    // does not
		expr.NewBinary(expr.OpEq, col("site"), expr.NewConst(types.NewString("hq"))),      // the fragment's constant: dropped
		expr.NewBinary(expr.OpGt, col("n"), expr.NewConst(types.NewString("1"))),          // orders as text
		expr.NewBinary(expr.OpLt, col("f"), expr.NewConst(types.NewFloat(8.5))),           // a number either side
	})
	kept := "(((usd = 0.14) AND (region >= 'north')) AND (grade = 'low')) AND (n > '1'))"
	all := "((((((((k < 90) AND (usd >= 0.07)) AND (usd = 0.14)) AND (region = 'north')) AND (region >= 'north')) AND (grade = 'low')) AND (n > '1')) AND (f < 8.5))"
	for _, c := range []struct {
		caps source.Capabilities
		want string
	}{
		{source.Capabilities{}, "[scan readings] globalFilter=" + all},
		{source.Capabilities{Project: true}, "[scan readings cols[6 0 1 2 5 4]] globalFilter=" + all},
		{source.Capabilities{Filter: source.FilterKey}, "[scan readings where (k < 90)] globalFilter=(((((((usd >= 0.07) AND (usd = 0.14)) AND (region = 'north')) AND (region >= 'north')) AND (grade = 'low')) AND (n > '1')) AND (f < 8.5))"},
		{source.Capabilities{Filter: source.FilterFull}, "[scan readings where ((((k < 90) AND (cents >= 7.0)) AND (code = '1')) AND (i < 8.5))] globalFilter=(" + kept},
		{source.Capabilities{Filter: source.FilterFull, Project: true}, "[scan readings where ((((k < 90) AND (cents >= 7.0)) AND (code = '1')) AND (i < 8.5)) cols[6 1 2 5]] globalFilter=(" + kept},
	} {
		f := newScanFed(t, c.caps, 150)
		fs, _ := f.scan(t, []int{gUsd}, pred)
		if got := strings.TrimPrefix(fs.Describe(), "FragScan ref.readings "); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.caps, got, c.want)
		}
		f.check(t, []int{gUsd}, pred)
	}
}

// A row the kept filter rejects costs no allocation, and a row that
// passes is built once: whatever the filter lets through, a scan handing
// lent rows to its consumer allocates the same, and one whose consumer
// keeps them allocates that plus the rows kept and nothing per row
// rejected.
func TestRejectedRowsCostNoAllocation(t *testing.T) {
	// k >= 0 passes every row, k < 0 none; the source filters nothing.
	key := func(pass bool) expr.Expr {
		op := expr.OpLt
		if pass {
			op = expr.OpGe
		}
		return expr.NewBinary(op, expr.NewColRef("", "k"), expr.NewConst(types.NewInt(0)))
	}
	allocs := func(n int, pred expr.Expr, lent bool, cols []int, rows int) float64 {
		fs, _ := newScanFed(t, source.Capabilities{}, n).scan(t, cols, pred)
		return testing.AllocsPerRun(5, func() {
			it, err := runFragScan(ctx, fs, nil)
			if err != nil {
				t.Fatal(err)
			}
			lendIf(it, lent)
			got := 0
			for {
				if _, err := it.Next(); err != nil {
					break
				}
				got++
			}
			if it.Close(); got != rows {
				t.Fatalf("%d rows, want %d", got, rows)
			}
		})
	}
	// In place (the fetched layout is the output) and cut (the filter's
	// column is fetched and not returned).
	for _, cols := range [][]int{{gK, gSite}, {gRegion, gUsd}} {
		const n = 2048
		none := allocs(n, key(true), true, cols, n)
		for _, c := range []struct {
			what string
			got  float64
		}{
			{"lent, every row rejected", allocs(n, key(false), true, cols, 0)},
			{"lent, twice the rows, every row rejected", allocs(2*n, key(false), true, cols, 0)},
			{"lent, twice the rows, none rejected", allocs(2*n, key(true), true, cols, 2*n)},
			{"kept, every row rejected", allocs(n, key(false), false, cols, 0)},
			{"kept, twice the rows, every row rejected", allocs(2*n, key(false), false, cols, 0)},
		} {
			if c.got > none {
				t.Errorf("cols %v, %s: %v allocations, a lent scan that rejects none of %d rows makes %v", cols, c.what, c.got, n, none)
			}
		}
		if kept := allocs(n, key(true), false, cols, n); kept <= none || kept > none+n/4 {
			t.Errorf("cols %v: a kept scan of %d rows makes %v allocations, a lent one %v: the difference should be the slab chunks of the rows kept", cols, n, kept, none)
		}
	}
}

// heldSource answers every query with the one iterator it holds, rewound
// over its rows: its Execute allocates nothing.
type heldSource struct {
	*refSource
	it heldIter
}

func (s *heldSource) Execute(context.Context, *source.Query) (source.RowIter, error) {
	s.it.next = 0
	return &s.it, nil
}

type heldIter struct {
	rows []types.Row
	next int
}

func (it *heldIter) Next() (types.Row, error) {
	if it.next == len(it.rows) {
		return nil, io.EOF
	}
	it.next++
	return it.rows[it.next-1], nil
}

func (it *heldIter) Close() error { return nil }

// A scan whose source's rows are its own — every column a plain copy in
// place, nothing kept to filter — is planned without positions and
// hands the source's iterator on: executing it allocates nothing of its
// own, whatever its consumer said.
func TestPassThroughScanAllocatesNothing(t *testing.T) {
	schema := types.NewSchema(intCol("k"), intCol("v"))
	rows := []types.Row{{types.NewInt(1), types.NewInt(10)}, {types.NewInt(2), types.NewInt(20)}}
	src := &heldSource{refSource: &refSource{info: &source.TableInfo{Schema: schema, RowCount: 2}}, it: heldIter{rows: rows}}
	cat := catalog.New()
	for _, err := range []error{cat.AddSource(src), cat.DefineTable("readings", schema), cat.MapSimple(ctx, "readings", "ref", "readings")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	tab, err := cat.Table("readings")
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Optimize(ctx, &plan.GlobalScan{Table: tab}, cat, nil)
	fs, ok := n.(*plan.FragScan)
	if err != nil || !ok || fs.Pos != nil || fs.Out != nil {
		t.Fatalf("want a scan that hands the source's rows on, planned %s (%v)", plan.Explain(n), err)
	}
	for _, lent := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			it, err := runFragScan(ctx, fs, nil)
			if err != nil {
				t.Fatal(err)
			}
			lendIf(it, lent)
			n := 0
			for ; ; n++ {
				if _, err := it.Next(); err != nil {
					break
				}
			}
			if it.Close(); n != len(rows) {
				t.Fatalf("%d rows, want %d", n, len(rows))
			}
		})
		if allocs != 0 {
			t.Errorf("lent %v: a pass-through scan execution allocates %v objects, want 0", lent, allocs)
		}
	}
}

// planFor optimizes one SELECT over cat under the default options.
func planFor(t *testing.T, cat *catalog.Catalog, text string) plan.Node {
	t.Helper()
	return (&ownFed{cat: cat}).plan(t, text, nil)
}

// texts renders rows for comparison.
func texts(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// A comparison over a unit-converted column answers as the comparison
// over the converted values does, whether a full-SQL source is shipped
// its translation (relstore) or the mediator evaluates it over what a
// scan-only one returns (filestore): usd = cents × 0.01 over twenty
// rows, every threshold a stored value. usd + 0 is the same predicate in
// a shape no source is asked. (Until PR 28 usd = 0.07 returned nothing
// and usd < 0.07 returned (7, 0.07), from both: the constant went to the
// source, or into the mediator's remote-space filter, as
// 7.000000000000001.)
func TestAffineFilterIsItsDefinition(t *testing.T) {
	cat := catalog.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	remote := types.NewSchema(intCol("cents"))
	global := types.NewSchema(intCol("cents"), types.Column{Name: "usd", Type: types.KindFloat})
	mapping := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 0, Scale: 0.01}}
	var csv strings.Builder
	rows := make([]types.Row, 20)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i + 1))}
		fmt.Fprintf(&csv, "%d\n", i+1)
	}
	rel := relstore.New("rel")
	must(rel.CreateTable("t", remote, 0))
	_, err := rel.Insert(ctx, "t", rows)
	must(err)
	files := filestore.New("files")
	must(files.RegisterData("t", csv.String(), remote))
	for _, src := range []source.Source{rel, files} {
		must(cat.AddSource(src))
		must(cat.DefineTable("g_"+src.Name(), global))
		must(cat.MapFragment(ctx, "g_"+src.Name(), &catalog.Fragment{Source: src.Name(), RemoteTable: "t", Columns: append([]catalog.ColumnMapping(nil), mapping...)}))
	}
	for _, table := range []string{"g_rel", "g_files"} {
		for c := 1; c <= 20; c++ {
			v := strconv.FormatFloat(float64(c)*0.01, 'g', -1, 64)
			for _, op := range []string{"<", "<=", ">", ">=", "="} {
				q := "SELECT cents, usd FROM " + table + " WHERE usd "
				got, err := Collect(ctx, planFor(t, cat, q+op+" "+v))
				must(err)
				want, err := Collect(ctx, planFor(t, cat, q+"+ 0 "+op+" "+v))
				must(err)
				if g, w := texts(got), texts(want); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("%s%s %s: %v\n  usd + 0 %s %s: %v", q, op, v, g, op, v, w)
				}
				if op == "=" && len(got) != 1 {
					t.Errorf("%s%s %s: %d rows, want the one", q, op, v, len(got))
				}
			}
		}
	}
}

// A value map's codes need not sort as what they stand for, so an
// ordering comparison over a value-mapped column is the mediator's.
// (Until PR 28 it went to the source with its constant inverted:
// gender < 'male' became sex < '1' and lost the row it is true of.)
func TestValueMappedColumnOrdersAsItsValues(t *testing.T) {
	cat := catalog.New()
	rel := relstore.New("rel")
	for _, err := range []error{
		rel.CreateTable("t", types.NewSchema(strCol("sex")), 0),
		cat.AddSource(rel),
		cat.DefineTable("g", types.NewSchema(strCol("gender"))),
		cat.MapFragment(ctx, "g", &catalog.Fragment{Source: "rel", RemoteTable: "t",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0, ValueMap: map[string]string{"1": "male", "2": "female"}}}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rel.Insert(ctx, "t", []types.Row{{types.NewString("1")}, {types.NewString("2")}}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT gender FROM g WHERE gender < 'male'":   "[(female)]",
		"SELECT gender FROM g WHERE gender >= 'male'":  "[(male)]",
		"SELECT gender FROM g WHERE gender = 'female'": "[(female)]",
		"SELECT gender FROM g WHERE gender <> 'male'":  "[(female)]",
	} {
		rows, err := Collect(ctx, planFor(t, cat, sql))
		if got := fmt.Sprint(texts(rows)); err != nil || got != want {
			t.Errorf("%s: %s, %v; want %s", sql, got, err, want)
		}
	}
}

// A column whose remote kind is not its global kind comes up as its
// global kind whatever else the statement reads, and a comparison with
// it means what it means over the global values. (Until PR 28 SELECT n
// returned INT 42 — the scan passed the source's rows through — while
// SELECT n, usd returned STRING "42", and WHERE n = '42' failed at the
// source with "cannot compare INT with STRING".)
func TestRetypedColumnIsCoerced(t *testing.T) {
	cat := catalog.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rel := relstore.New("rel")
	must(rel.CreateTable("t", types.NewSchema(intCol("cents"), intCol("n")), 0))
	_, err := rel.Insert(ctx, "t", []types.Row{{types.NewInt(7), types.NewInt(42)}, {types.NewInt(8), types.NewInt(5)}})
	must(err)
	must(cat.AddSource(rel))
	must(cat.DefineTable("g", types.NewSchema(strCol("n"), types.Column{Name: "usd", Type: types.KindFloat})))
	must(cat.MapFragment(ctx, "g", &catalog.Fragment{Source: "rel", RemoteTable: "t",
		Columns: []catalog.ColumnMapping{{RemoteCol: 1}, {RemoteCol: 0, Scale: 0.01}}}))
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT n FROM g", []string{"(42)", "(5)"}},
		{"SELECT n, usd FROM g", []string{"(42, 0.07)", "(5, 0.08)"}},
		{"SELECT n FROM g WHERE n = '42'", []string{"(42)"}},
		{"SELECT n FROM g WHERE n = '042'", []string{}},
		{"SELECT n FROM g WHERE n < '5'", []string{"(42)"}},
		{"SELECT n FROM g ORDER BY n", []string{"(42)", "(5)"}},
		{"SELECT MAX(n), COUNT(*) FROM g", []string{"(5, 2)"}},
		{"SELECT n, COUNT(*) FROM g GROUP BY n ORDER BY n", []string{"(42, 1)", "(5, 1)"}},
	} {
		rows, err := Collect(ctx, planFor(t, cat, c.sql))
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := texts(rows); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: %v, want %v", c.sql, got, c.want)
		}
		for _, r := range rows {
			if strings.HasPrefix(c.sql, "SELECT n") && r[0].Kind() != types.KindString {
				t.Errorf("%s: n came up as %s %v", c.sql, r[0].Kind(), r[0])
			}
		}
	}
}

// lendIf tells it Lent when lent, as a consumer inside exec that builds
// or folds does.
func lendIf(it source.RowIter, lent bool) {
	if lent {
		source.Use(it, source.Lent)
	}
}
