package catalog

import (
	"context"
	"slices"
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
	// Global → remote (inverse).
	r, ok := fragA.Columns[1].ToRemote(types.NewString("female"))
	if !ok || r.Str() != "F" {
		t.Errorf("ToRemote(female) = %v, %v", r, ok)
	}
	// A global constant that collides with a remote code must refuse.
	if _, ok := fragA.Columns[1].ToRemote(types.NewString("M")); ok {
		t.Error("colliding constant must not push")
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
	r, ok := fragB.Columns[2].ToRemote(types.NewFloat(100))
	if !ok {
		t.Fatal("affine must invert")
	}
	if lbs := r.Float(); lbs < 220 || lbs > 221 {
		t.Errorf("100 kg = %v lbs", lbs)
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
	if _, ok := fragA.Columns[3].ToRemote(types.NewString("A")); ok {
		t.Error("const columns must not invert")
	}
}

// TestConjunctTranslation: each conjunct of gender = 'male' AND
// weight_kg > 80 AND site = 'A' translates per fragment on its own — the
// value-mapped one through the map's inverse, the identity one as it is,
// the unit-converted one onto the remote bound — and the constant-mapped
// one has no remote form.
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
	if rc, ok := fragA.TranslateConjunct(gender); !ok || rc.String() != "(sex = 'M')" {
		t.Errorf("value-mapped pushdown = %v, %v", rc, ok)
	}
	if _, ok := fragA.TranslateConjunct(weight); !ok {
		t.Error("identity-mapped conjunct did not translate")
	}
	if rc, ok := fragA.TranslateConjunct(site); ok {
		t.Errorf("constant-mapped conjunct translated to %v", rc)
	}
	// Fragment B: weight_kg > 80 → weight_lbs > ~176.4.
	rc, ok := fragB.TranslateConjunct(weight)
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
	remote, ok := tab.Fragments[0].TranslateConjunct(pred)
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
	// site is a constant of the fragment: no remote column backs it.
	if remote := fragA.RemoteCols(globalCols); !slices.Equal(remote, []int{0, 1, 2}) {
		t.Fatalf("remote cols = %v", remote)
	}
	translate := func(f *Fragment, globalCols []int, remote types.Row) (types.Row, error) {
		row := make(types.Row, len(globalCols))
		return row, f.TranslateInto(row, tab.Schema, globalCols, f.RowPositions(globalCols, true), remote)
	}
	row, err := translate(fragA, globalCols,
		types.Row{types.NewInt(1), types.NewString("F"), types.NewFloat(61)})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Int() != 1 || row[1].Str() != "female" || row[2].Float() != 61 || row[3].Str() != "A" {
		t.Errorf("translated = %v", row)
	}
	// Subset + reorder.
	row, err = translate(fragA, []int{3, 1}, types.Row{types.NewString("M")})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Str() != "A" || row[1].Str() != "male" {
		t.Errorf("subset translated = %v", row)
	}
	// NULL passes through.
	row, err = translate(fragA, []int{1}, types.Row{types.Null})
	if err != nil || !row[0].IsNull() {
		t.Errorf("null translate = %v, %v", row, err)
	}
	// Affine coercion to global type.
	fragB := tab.Fragments[1]
	row, err = translate(fragB, []int{2}, types.Row{types.NewFloat(100)})
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
		if got := frag.PruneByPartition(e); got != p.prune {
			t.Errorf("id < 100, filtered by %s: pruned %v, want %v", p.filter, got, p.prune)
		}
	}
	if frag.PruneByPartition(nil) {
		t.Error("nil filter must not prune")
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

func TestGlobalTableStats(t *testing.T) {
	c, hospA, _ := newHospitalFixture(t)
	tab, _ := c.Table("patients")
	if tab.Stats() == nil {
		// Both fragments report RowCount 0 → Unknown stats merge.
		t.Log("stats nil before analyze (fragments empty)")
	}
	// Install explicit stats on one fragment.
	ts, err := hospA.Stats("pat")
	if err != nil {
		t.Fatal(err)
	}
	tab.Fragments[0].SetStats(ts)
	if tab.Stats() == nil {
		t.Error("stats must merge when a fragment is analyzed")
	}
}

// mappedColumn maps one global column g of kind global over the only
// column of a remote table, of kind remote, through m.
func mappedColumn(t *testing.T, remote, global types.Kind, m ColumnMapping) (*Fragment, *types.Schema) {
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
				remote, ok := f.TranslateConjunct(global)
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
	if remote, ok := f.TranslateConjunct(global); ok {
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
	if !f.NeedsTranslation([]int{0}) {
		t.Error("STRING over INT needs no translation")
	}
	for _, op := range comparisons {
		global, err := expr.Bind(expr.NewBinary(op, expr.NewColRef("", "g"), expr.NewConst(types.NewString("42"))), schema)
		if err != nil {
			t.Fatal(err)
		}
		if remote, ok := f.TranslateConjunct(global); ok {
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
	remote, ok := f.TranslateConjunct(global)
	if !ok || remote.String() != "(r < 3.5)" {
		t.Errorf("%s translated to %v, %v", global, remote, ok)
	}

	f, _ = mappedColumn(t, types.KindInt, types.KindInt, ColumnMapping{})
	if !f.Columns[0].Identity() || !f.Columns[0].InvertsExactly() {
		t.Error("INT over INT is no identity")
	}
}
