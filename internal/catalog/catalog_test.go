package catalog

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// newHospitalFixture builds a catalog with two sources holding patient
// tables under conflicting schemas, mapped onto one global table.
//
// Global: patients(id INT, gender STRING, weight_kg FLOAT, site STRING)
// hospA.pat: (pid INT, sex STRING codes M/F, kg FLOAT)       + site const "A"
// hospB.people: (weight_lbs FLOAT, person_id INT, gender STRING full words) + site const "B"
func newHospitalFixture(t *testing.T) (*Catalog, *relstore.Store, *relstore.Store) {
	t.Helper()
	hospA := relstore.New("hospA")
	if err := hospA.CreateTable("pat", types.NewSchema(
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "sex", Type: types.KindString},
		types.Column{Name: "kg", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	hospB := relstore.New("hospB")
	if err := hospB.CreateTable("people", types.NewSchema(
		types.Column{Name: "weight_lbs", Type: types.KindFloat},
		types.Column{Name: "person_id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
	), 1); err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.AddSource(hospA); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSource(hospB); err != nil {
		t.Fatal(err)
	}
	global := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
		types.Column{Name: "weight_kg", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
	)
	if err := c.DefineTable("patients", global); err != nil {
		t.Fatal(err)
	}
	siteA, siteB := types.NewString("A"), types.NewString("B")
	if err := c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospA", RemoteTable: "pat",
		Columns: []ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, ValueMap: map[string]string{"M": "male", "F": "female"}},
			{RemoteCol: 2},
			{RemoteCol: -1, Const: &siteA},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospB", RemoteTable: "people",
		Columns: []ColumnMapping{
			{RemoteCol: 1},
			{RemoteCol: 2},
			{RemoteCol: 0, Scale: 0.453592}, // lbs → kg
			{RemoteCol: -1, Const: &siteB},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c, hospA, hospB
}

func TestCatalogRegistration(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	if len(c.Sources()) != 2 || len(c.Tables()) != 1 {
		t.Errorf("sources=%v tables=%v", c.Sources(), c.Tables())
	}
	tab, err := c.Table("patients")
	if err != nil || len(tab.Fragments) != 2 {
		t.Fatalf("table = %+v, %v", tab, err)
	}
	if _, err := c.Table("ghost"); err == nil {
		t.Error("unknown table must error")
	}
	if _, err := c.Source("ghost"); err == nil {
		t.Error("unknown source must error")
	}
}

func TestCatalogValidation(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	// Duplicate definitions.
	if err := c.DefineTable("patients", types.NewSchema(types.Column{Name: "x", Type: types.KindInt})); err == nil {
		t.Error("duplicate global table must error")
	}
	st := relstore.New("hospA")
	if err := c.AddSource(st); err == nil {
		t.Error("duplicate source must error")
	}
	// Fragment with wrong column count.
	err := c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospA", RemoteTable: "pat",
		Columns: []ColumnMapping{{RemoteCol: 0}},
	})
	if err == nil {
		t.Error("wrong arity fragment must error")
	}
	// Remote column out of range.
	err = c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospA", RemoteTable: "pat",
		Columns: []ColumnMapping{{RemoteCol: 0}, {RemoteCol: 9}, {RemoteCol: 2}, {RemoteCol: 0}},
	})
	if err == nil {
		t.Error("out-of-range remote column must error")
	}
	// Unknown remote table.
	err = c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospA", RemoteTable: "ghost",
		Columns: make([]ColumnMapping, 4),
	})
	if err == nil {
		t.Error("unknown remote table must error")
	}
	// Affine over strings.
	err = c.MapFragment(context.Background(), "patients", &Fragment{
		Source: "hospA", RemoteTable: "pat",
		Columns: []ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, Scale: 2},
			{RemoteCol: 2},
			{RemoteCol: 0},
		},
	})
	if err == nil {
		t.Error("affine mapping over string column must error")
	}
}

func TestValueMapTranslation(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	fragA := tab.Fragments[0]
	// Remote → global.
	g, err := fragA.Columns[1].ToGlobal(types.NewString("M"))
	if err != nil || g.Str() != "male" {
		t.Errorf("ToGlobal(M) = %v, %v", g, err)
	}
	// Unmapped code passes through.
	g, _ = fragA.Columns[1].ToGlobal(types.NewString("X"))
	if g.Str() != "X" {
		t.Errorf("ToGlobal(X) = %v", g)
	}
}

func TestAffineTranslation(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	fragB := tab.Fragments[1]
	g, err := fragB.Columns[2].ToGlobal(types.NewFloat(220.462))
	if err != nil {
		t.Fatal(err)
	}
	if kg := g.Float(); kg < 99.9 || kg > 100.1 {
		t.Errorf("220 lbs = %v kg", kg)
	}
}

func TestConstMapping(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	fragA := tab.Fragments[0]
	g, err := fragA.Columns[3].ToGlobal(types.Null)
	if err != nil || g.Str() != "A" {
		t.Errorf("const mapping = %v, %v", g, err)
	}
}

// TestConjunctTranslation: each conjunct of gender = 'male' AND
// weight_kg > 80 AND site = 'A' translates per fragment on its own — the
// value-mapped one through the map's inverse, the identity one as it is,
// the unit-converted one onto the remote bound — and the constant-mapped
// one is decided by the fragment's constant: dropped at A, whose every
// row reads site 'A', and pruning B, none of whose rows do.
func TestConjunctTranslation(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	fragA, fragB := tab.Fragments[0], tab.Fragments[1]
	pred, err := expr.Bind(expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewColRef("", "gender"), expr.NewConst(types.NewString("male"))),
		expr.NewBinary(expr.OpGt, expr.NewColRef("", "weight_kg"), expr.NewConst(types.NewFloat(80))),
		expr.NewBinary(expr.OpEq, expr.NewColRef("", "site"), expr.NewConst(types.NewString("A"))),
	}), tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	conj := expr.AppendConjuncts(nil, pred)
	gender, weight, site := conj[0], conj[1], conj[2]
	if rc, ok := fragA.translateConjunct(gender); !ok || rc.String() != "(sex = 'M')" {
		t.Errorf("value-mapped pushdown = %v, %v", rc, ok)
	}
	if _, ok := fragA.translateConjunct(weight); !ok {
		t.Error("identity-mapped conjunct did not translate")
	}
	all := func(expr.Expr) bool { return true }
	if pushed, kept, pruned := fragA.Split(site, all); pushed != nil || kept != nil || pruned {
		t.Errorf("site = 'A' at A: pushed %v, kept %v, pruned %v; want it dropped", pushed, kept, pruned)
	}
	if _, _, pruned := fragB.Split(pred, all); !pruned {
		t.Errorf("%s did not prune B", pred)
	}
	// Fragment B: weight_kg > 80 → weight_lbs > ~176.4.
	rc, ok := fragB.translateConjunct(weight)
	b, _ := rc.(*expr.Binary)
	if !ok || b == nil || b.L.(*expr.ColRef).Name != "weight_lbs" {
		t.Fatalf("affine predicate did not push: %v, %v", rc, ok)
	}
	if v := b.R.(*expr.Const).Val.Float(); v < 176 || v > 177 {
		t.Errorf("lbs bound = %v", v)
	}
}

func TestNegativeScaleFlipsComparison(t *testing.T) {
	// global = -1 * remote  (e.g. sign-flipped ledger)
	st := relstore.New("flip")
	st.CreateTable("t", types.NewSchema(types.Column{Name: "neg", Type: types.KindFloat}), 0)
	c := New()
	c.AddSource(st)
	c.DefineTable("g", types.NewSchema(types.Column{Name: "v", Type: types.KindFloat}))
	if err := c.MapFragment(context.Background(), "g", &Fragment{
		Source: "flip", RemoteTable: "t",
		Columns: []ColumnMapping{{RemoteCol: 0, Scale: -1}},
	}); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("g")
	pred, _ := expr.Bind(expr.NewBinary(expr.OpGt, expr.NewColRef("", "v"), expr.NewConst(types.NewFloat(5))), tab.Schema)
	remote, ok := tab.Fragments[0].translateConjunct(pred)
	if !ok {
		t.Fatal("predicate should push fully")
	}
	b := remote.(*expr.Binary)
	if b.Op != expr.OpLt {
		t.Errorf("negative scale must flip > to <, got %s", b.Op)
	}
	if v := b.R.(*expr.Const).Val.Float(); v != -5 {
		t.Errorf("flipped constant = %v", v)
	}
}

func TestTranslateRow(t *testing.T) {
	c, _, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	fragA := tab.Fragments[0]
	// Requested global columns: id, gender, weight_kg, site.
	globalCols := []int{0, 1, 2, 3}
	// The source was asked for id, gender and weight; site is a
	// constant of the fragment (position -1): no remote column backs it.
	translate := func(f *Fragment, globalCols, pos []int, remote types.Row) (types.Row, error) {
		row := make(types.Row, len(globalCols))
		return row, f.TranslateInto(row, tab.Schema, globalCols, pos, remote)
	}
	row, err := translate(fragA, globalCols, []int{0, 1, 2, -1},
		types.Row{types.NewInt(1), types.NewString("F"), types.NewFloat(61)})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 1 || row[1].Str() != "female" || row[2].Float() != 61 || row[3].Str() != "A" {
		t.Errorf("translated = %v", row)
	}
	// Subset + reorder.
	row, err = translate(fragA, []int{3, 1}, []int{-1, 0}, types.Row{types.NewString("M")})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "A" || row[1].Str() != "male" {
		t.Errorf("subset translated = %v", row)
	}
	// NULL passes through.
	row, err = translate(fragA, []int{1}, []int{0}, types.Row{types.Null})
	if err != nil || !row[0].IsNull() {
		t.Errorf("null translate = %v, %v", row, err)
	}
	// Affine coercion to global type.
	fragB := tab.Fragments[1]
	row, err = translate(fragB, []int{2}, []int{0}, types.Row{types.NewFloat(100)})
	if err != nil || row[0].Kind() != types.KindFloat {
		t.Errorf("affine row = %v, %v", row, err)
	}
}

func TestPartitionPruning(t *testing.T) {
	st := relstore.New("p")
	st.CreateTable("t", types.NewSchema(types.Column{Name: "id", Type: types.KindInt}), 0)
	c := New()
	c.AddSource(st)
	c.DefineTable("g", types.NewSchema(types.Column{Name: "id", Type: types.KindInt}))
	// Fragment holds id < 100.
	err := c.MapFragment(context.Background(), "g", &Fragment{
		Source: "p", RemoteTable: "t",
		Columns: []ColumnMapping{{RemoteCol: 0}},
		Where:   expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(100))),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("g")
	frag := tab.Fragments[0]
	for _, p := range []struct {
		filter string
		prune  bool
	}{
		{"id = 500", true},               // disjoint equality
		{"id >= 100", true},              // disjoint range
		{"id < 50", false},               // overlapping range
		{"id = 99", false},               // the boundary inside
		{"100 <= id", true},              // either way round
		{"id IN (100, 500, NULL)", true}, // no key inside
		{"id IN (500, 99.0)", false},     // one key inside
		{"id IN (NULL)", true},           // a NULL entry matches nothing
		{"id = NULL", true},              // a comparison with NULL admits nothing
		{"id < 600 AND id > NULL", true},
		{"id > 5 AND id < 3", true}, // contradicts itself
		{"id = 1 AND id = 2", true},
		{"id > 5 AND id < 7", false},
		{"id IN (1, 2) AND id IN (2, 3)", false},
		{"id IN (1, 2) AND id IN (3, 4)", true},
		{"id IN (1, 200) AND id > 50", true}, // the keys the range leaves
		{"id <> 5", false},
		{"id < 50 OR id > 500", false},
	} {
		e, err := sql.ParseExpr(p.filter)
		if err != nil {
			t.Fatal(err)
		}
		if e, err = expr.Bind(e, tab.Schema); err != nil {
			t.Fatal(err)
		}
		if _, _, got := frag.Split(e, func(expr.Expr) bool { return true }); got != p.prune {
			t.Errorf("id < 100, filtered by %s: pruned %v, want %v", p.filter, got, p.prune)
		}
		if got := frag.Excludes(e); got != p.prune {
			t.Errorf("id < 100, filtered by %s: excluded %v, want %v", p.filter, got, p.prune)
		}
		if allocs := testing.AllocsPerRun(10, func() { frag.Excludes(e) }); allocs != 0 && strings.Count(p.filter, "IN") < 2 {
			t.Errorf("id < 100, filtered by %s: Excludes allocates %.0f objects", p.filter, allocs)
		}
	}
	if _, _, pruned := frag.Split(nil, nil); pruned {
		t.Error("nil filter must not prune")
	}
}

// TestMapsLike maps one table over fragments that differ in one thing
// each from the first: those whose column mappings, remote schema and
// key columns are the first's map like it, whatever their source, table
// name and partition predicate; each of the others maps like none. A
// fragment no catalog mapped maps like none either.
func TestMapsLike(t *testing.T) {
	ctx := context.Background()
	remote := types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindString},
		types.Column{Name: "c", Type: types.KindFloat},
	)
	swapped := types.NewSchema(remote.Columns[1], remote.Columns[0], remote.Columns[2])
	c := New()
	for _, st := range []struct {
		name   string
		schema *types.Schema
		key    int
	}{{"s0", remote, 0}, {"s1", remote, 0}, {"s2", swapped, 1}, {"s3", remote, 1}} {
		store := relstore.New(st.name)
		if err := store.CreateTable("t", st.schema, st.key); err != nil {
			t.Fatal(err)
		}
		if err := c.AddSource(store); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DefineTable("g", types.NewSchema(append(remote.Columns[:3:3], types.Column{Name: "site", Type: types.KindString})...)); err != nil {
		t.Fatal(err)
	}
	mapping := func(site string, edit func([]ColumnMapping)) []ColumnMapping {
		v := types.NewString(site)
		cols := []ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: -1, Const: &v}}
		if edit != nil {
			edit(cols)
		}
		return cols
	}
	below, err := sql.ParseExpr("a < 10")
	if err != nil {
		t.Fatal(err)
	}
	frags := []struct {
		what string
		frag *Fragment
		like bool
	}{
		{"the first", &Fragment{Source: "s0", RemoteTable: "t", Columns: mapping("one", nil), Where: below}, true},
		{"another source, no partition predicate", &Fragment{Source: "s1", RemoteTable: "t", Columns: mapping("one", nil)}, true},
		{"another constant", &Fragment{Source: "s0", RemoteTable: "t", Columns: mapping("two", nil)}, false},
		{"the remote columns the other way round", &Fragment{Source: "s2", RemoteTable: "t",
			Columns: mapping("one", func(m []ColumnMapping) { m[0].RemoteCol, m[1].RemoteCol = 1, 0 })}, false},
		{"a value map", &Fragment{Source: "s0", RemoteTable: "t",
			Columns: mapping("one", func(m []ColumnMapping) { m[1].ValueMap = map[string]string{"N": "north"} })}, false},
		{"a unit conversion", &Fragment{Source: "s0", RemoteTable: "t",
			Columns: mapping("one", func(m []ColumnMapping) { m[2].Scale = 100 })}, false},
		{"another key column", &Fragment{Source: "s3", RemoteTable: "t", Columns: mapping("one", nil)}, false},
	}
	for _, f := range frags {
		if err := c.MapFragment(ctx, "g", f.frag); err != nil {
			t.Fatalf("%s: %v", f.what, err)
		}
	}
	for i, f := range frags {
		if got := frags[0].frag.MapsLike(f.frag); got != f.like {
			t.Errorf("%s: maps like the first %v, want %v", f.what, got, f.like)
		}
		for j, g := range frags[2:] {
			if got := g.frag.MapsLike(f.frag); got != (i == j+2) {
				t.Errorf("%s maps like %s: %v", g.what, f.what, got)
			}
		}
	}
	unmapped := &Fragment{Source: "s0", RemoteTable: "t", Columns: mapping("one", nil)}
	if unmapped.MapsLike(unmapped) {
		t.Error("a fragment no catalog mapped maps like itself")
	}
}

func TestMapSimple(t *testing.T) {
	st := relstore.New("s")
	st.CreateTable("t", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindString},
	), 0)
	c := New()
	c.AddSource(st)
	c.DefineTable("g", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindString},
	))
	if err := c.MapSimple(context.Background(), "g", "s", "t"); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Table("g")
	if len(tab.Fragments) != 1 || !tab.Fragments[0].Columns[0].Identity() {
		t.Errorf("simple fragment = %+v", tab.Fragments[0])
	}
}

// mappedColumn maps one global column g of kind global over the only
// column of a remote table, of kind remote, through m.
func mappedColumn(t testing.TB, remote, global types.Kind, m ColumnMapping) (*Fragment, *types.Schema) {
	t.Helper()
	st := relstore.New("s")
	if err := st.CreateTable("t", types.NewSchema(types.Column{Name: "r", Type: remote}), 0); err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.AddSource(st); err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(types.Column{Name: "g", Type: global})
	if err := c.DefineTable("g", schema); err != nil {
		t.Fatal(err)
	}
	f := &Fragment{Source: "s", RemoteTable: "t", Columns: []ColumnMapping{m}}
	if err := c.MapFragment(context.Background(), "g", f); err != nil {
		t.Fatal(err)
	}
	return f, schema
}

var comparisons = []expr.BinOp{expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpEq, expr.OpNe}

// A comparison over a unit-converted column is pushed only as a remote
// comparison that accepts exactly the remote values whose conversion the
// global one accepts: for every threshold c × scale + offset, c in
// 1…1 999, and the remote values around c, stored as INT and as FLOAT.
// The rounded inverse alone lands above 163 of the 1 999 stored values
// of × 0.01 and below 140 (it says 7.000000000000001 for 0.07, and
// 7 × 0.01 is 0.07, so "cents < inverse" took the row "usd < 0.07" does
// not); = and <> have no exact remote form and are not translated.
func TestAffineComparisonTranslatesExactly(t *testing.T) {
	for _, m := range []ColumnMapping{{Scale: 0.01}, {Scale: -0.01}, {Scale: 1.8, Offset: 32}, {Scale: 0.453592}, {Scale: -3, Offset: 0.1}} {
		f, schema := mappedColumn(t, types.KindFloat, types.KindFloat, m)
		m := &f.Columns[0]
		inverseWrong := 0
		for c := 1; c < 2000; c++ {
			v, err := m.ToGlobal(types.NewInt(int64(c)))
			if err != nil {
				t.Fatal(err)
			}
			if rv, _ := m.ToRemote(v); rv.Float() != float64(c) {
				inverseWrong++
			}
			for _, op := range comparisons {
				global, err := expr.Bind(expr.NewBinary(op, expr.NewColRef("", "g"), expr.NewConst(v)), schema)
				if err != nil {
					t.Fatal(err)
				}
				remote, ok := f.translateConjunct(global)
				if op == expr.OpEq || op == expr.OpNe {
					if ok {
						t.Fatalf("scale %v: %s was translated to %s", m.Scale, global, remote)
					}
					continue
				}
				if !ok {
					t.Fatalf("scale %v: %s was not translated", m.Scale, global)
				}
				for d := -2; d <= 2; d++ {
					for _, r := range []types.Value{types.NewInt(int64(c + d)), types.NewFloat(float64(c + d))} {
						g, err := m.ToGlobal(r)
						if err != nil {
							t.Fatal(err)
						}
						want, werr := expr.EvalBool(global, types.Row{g})
						got, gerr := expr.EvalBool(remote, types.Row{r})
						if werr != nil || gerr != nil || got != want {
							t.Fatalf("scale %v offset %v: remote value %v is %v: %s says %v (%v), pushed as %s says %v (%v)",
								m.Scale, m.Offset, r, g, global, want, werr, remote, got, gerr)
						}
					}
				}
			}
		}
		t.Logf("scale %v offset %v: the rounded inverse misses %d of 1999 stored values", m.Scale, m.Offset, inverseWrong)
	}
	// A conversion whose offset swamps its scale maps whole ranges of
	// remote values to one global value; the boundary is then far from
	// the inverse and the conjunct is kept rather than searched for.
	f, schema := mappedColumn(t, types.KindFloat, types.KindFloat, ColumnMapping{Scale: 1e-30, Offset: 1})
	global, _ := expr.Bind(expr.NewBinary(expr.OpLe, expr.NewColRef("", "g"), expr.NewConst(types.NewFloat(1))), schema)
	if remote, ok := f.translateConjunct(global); ok {
		t.Errorf("%s translated to %s", global, remote)
	}
}

// A column whose remote kind is not its global kind is not an identity:
// every value is coerced. Numbers order and equal alike as INT and as
// FLOAT, so a comparison goes to the source with its constant as
// written; other kinds do not ('5' < '42', '042' is not '42'), so theirs
// stay with the mediator.
func TestRetypedColumnIsNotIdentity(t *testing.T) {
	f, schema := mappedColumn(t, types.KindInt, types.KindString, ColumnMapping{})
	m := &f.Columns[0]
	if m.Identity() || m.InvertsExactly() {
		t.Errorf("STRING over INT: Identity %v, InvertsExactly %v", m.Identity(), m.InvertsExactly())
	}
	for _, op := range comparisons {
		global, err := expr.Bind(expr.NewBinary(op, expr.NewColRef("", "g"), expr.NewConst(types.NewString("42"))), schema)
		if err != nil {
			t.Fatal(err)
		}
		if remote, ok := f.translateConjunct(global); ok {
			t.Errorf("%s translated to %s", global, remote)
		}
	}
	row := make(types.Row, 1)
	if err := f.TranslateInto(row, schema, []int{0}, []int{0}, types.Row{types.NewInt(42)}); err != nil || row[0].Kind() != types.KindString || row[0].Str() != "42" {
		t.Errorf("INT 42 came up as %v %v, %v", row[0].Kind(), row[0], err)
	}

	f, schema = mappedColumn(t, types.KindInt, types.KindFloat, ColumnMapping{})
	if f.Columns[0].Identity() {
		t.Error("FLOAT over INT is an identity")
	}
	global, err := expr.Bind(expr.NewBinary(expr.OpLt, expr.NewColRef("", "g"), expr.NewConst(types.NewFloat(3.5))), schema)
	if err != nil {
		t.Fatal(err)
	}
	remote, ok := f.translateConjunct(global)
	if !ok || remote.String() != "(r < 3.5)" {
		t.Errorf("%s translated to %v, %v", global, remote, ok)
	}

	f, _ = mappedColumn(t, types.KindInt, types.KindInt, ColumnMapping{})
	if !f.Columns[0].Identity() || !f.Columns[0].InvertsExactly() {
		t.Error("INT over INT is no identity")
	}
}

// BenchmarkTranslateInto translates 4 000 source rows into the global
// representation through each kind of column mapping: a plain copy, a
// unit conversion (INT cents to FLOAT) and a value map. Read B/op and
// allocs/op: a mapping that allocates per row shows as allocs/op of
// 4 000 or more.
func BenchmarkTranslateInto(b *testing.B) {
	const n = 4000
	cents := func(i int) types.Value { return types.NewInt(int64(i)) }
	for _, c := range []struct {
		name           string
		remote, global types.Kind
		m              ColumnMapping
		value          func(i int) types.Value
	}{
		{"identity", types.KindInt, types.KindInt, ColumnMapping{}, cents},
		{"affine", types.KindInt, types.KindFloat, ColumnMapping{Scale: 0.01}, cents},
		{"value_map", types.KindString, types.KindString,
			ColumnMapping{ValueMap: map[string]string{"N": "north", "S": "south", "E": "east", "W": "west"}},
			func(i int) types.Value { return types.NewString("NSEW"[i%4 : i%4+1]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, schema := mappedColumn(b, c.remote, c.global, c.m)
			rows := make([]types.Row, n)
			for i := range rows {
				rows[i] = types.Row{c.value(i)}
			}
			dst, cols, pos := make(types.Row, 1), []int{0}, []int{0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range rows {
					if err := f.TranslateInto(dst, schema, cols, pos, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSplitAgreesWithTheFilter: Fragment.Split over a fragment with every
// kind of mapping — g(id identity, status through a value map, kg
// through an affine conversion, num retyped from INT to FLOAT, site the
// constant 'x') holding id < 5 — against the filter it splits, over
// every remote row of a small domain. Where it prunes the fragment, no
// row the fragment holds passes the filter; where it does not, the
// pushed translation over the remote row, ANDed with the kept conjuncts
// over the translated row, is the filter over the translated row. The
// source is drawn to accept or refuse each translation.
func TestSplitAgreesWithTheFilter(t *testing.T) {
	st := relstore.New("s")
	if err := st.CreateTable("r", types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "code", Type: types.KindString},
		types.Column{Name: "lbs", Type: types.KindFloat},
		types.Column{Name: "n", Type: types.KindInt},
	), 0); err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.AddSource(st); err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "status", Type: types.KindString},
		types.Column{Name: "kg", Type: types.KindFloat},
		types.Column{Name: "num", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
	)
	if err := c.DefineTable("g", schema); err != nil {
		t.Fatal(err)
	}
	site := types.NewString("x")
	f := &Fragment{Source: "s", RemoteTable: "r",
		Columns: []ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, ValueMap: map[string]string{"A": "active", "I": "inactive"}},
			{RemoteCol: 2, Scale: 0.5},
			{RemoteCol: 3},
			{RemoteCol: -1, Const: &site},
		},
		Where: expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(5))),
	}
	if err := c.MapFragment(context.Background(), "g", f); err != nil {
		t.Fatal(err)
	}

	str, num := types.NewString, func(v float64) types.Value { return types.NewFloat(v) }
	var remote []types.Row
	for _, a := range []types.Value{types.NewInt(1), types.NewInt(3), types.NewInt(6), types.Null} {
		for _, code := range []types.Value{str("A"), str("I"), str("X"), types.Null} {
			for _, lbs := range []types.Value{num(2), num(3), num(10), types.Null} {
				for _, n := range []types.Value{types.NewInt(1), types.NewInt(4), types.Null} {
					remote = append(remote, types.Row{a, code, lbs, n})
				}
			}
		}
	}
	cols, pos := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, -1}
	global := make([]types.Row, len(remote))
	for i, r := range remote {
		global[i] = make(types.Row, len(cols))
		if err := f.TranslateInto(global[i], schema, cols, pos, r); err != nil {
			t.Fatal(err)
		}
	}

	values := [][]types.Value{
		{types.NewInt(0), types.NewInt(1), types.NewInt(3), types.NewInt(5), types.NewInt(7), types.Null},
		{str("active"), str("inactive"), str("A"), str("X"), types.Null},
		{num(1), num(1.5), num(2), num(5), types.Null},
		{num(1), num(2.5), num(4), types.Null},
		{str("x"), str("y"), types.Null},
	}
	ops := []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	r := rand.New(rand.NewSource(55))
	conjunct := func() expr.Expr {
		col := r.Intn(len(values))
		ref := expr.NewColRef("", schema.Columns[col].Name)
		val := expr.NewConst(values[col][r.Intn(len(values[col]))])
		switch r.Intn(8) {
		case 0:
			return &expr.IsNull{E: ref, Negate: r.Intn(2) == 0}
		case 1:
			other := expr.NewBinary(expr.OpEq, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(int64(r.Intn(7)))))
			s := expr.NewConst(values[4][r.Intn(len(values[4]))])
			return expr.NewBinary(expr.OpOr, expr.NewBinary(expr.OpEq, expr.NewColRef("", "site"), s), other)
		case 2:
			return &expr.InList{E: ref, List: []expr.Expr{val, expr.NewConst(values[col][r.Intn(len(values[col]))])}}
		}
		return expr.NewBinary(ops[r.Intn(len(ops))], ref, val)
	}

	var pruned, pushed, kept int
	for i := 0; i < 2000 && !t.Failed(); i++ {
		conj := make([]expr.Expr, 1+r.Intn(3))
		for j := range conj {
			conj[j] = conjunct()
		}
		filter, err := expr.Bind(expr.Conjoin(conj), schema)
		if err != nil {
			t.Fatal(err)
		}
		p, k, isPruned := f.Split(filter, func(expr.Expr) bool { return r.Intn(4) > 0 })
		if isPruned {
			pruned++
		}
		pushed += len(expr.AppendConjuncts(nil, p))
		kept += len(expr.AppendConjuncts(nil, k))
		for j := range remote {
			want, err := expr.EvalBool(filter, global[j])
			if err != nil {
				t.Fatal(err)
			}
			if isPruned {
				if held, _ := f.Holds(global[j]); held && want {
					t.Errorf("WHERE %s pruned the fragment, which holds %s, read as %s", filter, remote[j], global[j])
				}
				continue
			}
			got, gerr := p == nil, error(nil)
			if !got {
				got, gerr = expr.EvalBool(p, remote[j])
			}
			if k != nil && got && gerr == nil {
				got, gerr = expr.EvalBool(k, global[j])
			}
			if gerr != nil || got != want {
				t.Errorf("WHERE %s split as %v at the source, %v kept: remote row %s (read as %s) passes %v, %v; want %v",
					filter, p, k, remote[j], global[j], got, gerr, want)
				break
			}
		}
	}
	t.Logf("2 000 filters: %d pruned the fragment, %d conjuncts pushed, %d kept", pruned, pushed, kept)
	if pruned < 100 || pushed < 100 || kept < 100 {
		t.Errorf("%d pruned, %d pushed, %d kept: the draw says little", pruned, pushed, kept)
	}
}
