package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/resilience"
	"gis/internal/source"
	"gis/internal/types"
)

// newMediatedEngine maps a legacy store (codes + imperial units) onto a
// clean global table, exercising every write-path translation.
//
// Global:  items(id INT, status STRING, weight_kg FLOAT, site STRING)
// Remote:  legacy.t(id INT, st STRING codes A/I, lbs FLOAT)
func newMediatedEngine(t *testing.T) (*Engine, *relstore.Store) {
	t.Helper()
	return newMediatedEngineVia(t, func(st source.Source) source.Source { return st })
}

// newMediatedEngineVia is newMediatedEngine with the store reached as
// wrap makes it.
func newMediatedEngineVia(t *testing.T, wrap func(source.Source) source.Source) (*Engine, *relstore.Store) {
	t.Helper()
	legacy := relstore.New("legacy")
	if err := legacy.CreateTable("t", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "st", Type: types.KindString},
		types.Column{Name: "lbs", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.Catalog().AddSource(wrap(legacy)); err != nil {
		t.Fatal(err)
	}
	global := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "status", Type: types.KindString},
		types.Column{Name: "weight_kg", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
	)
	if err := e.Catalog().DefineTable("items", global); err != nil {
		t.Fatal(err)
	}
	site := types.NewString("legacy")
	if err := e.Catalog().MapFragment(context.Background(), "items", &catalog.Fragment{
		Source: "legacy", RemoteTable: "t",
		Columns: []catalog.ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, ValueMap: map[string]string{"A": "active", "I": "inactive"}},
			{RemoteCol: 2, Scale: 0.453592},
			{RemoteCol: -1, Const: &site},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return e, legacy
}

func TestInsertThroughMappings(t *testing.T) {
	e, legacy := newMediatedEngine(t)
	n, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 45.3592)")
	if err != nil || n != 1 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	// The remote row stores the inverse representation.
	st, err := legacy.Stats("t")
	if err != nil || st.RowCount != 1 {
		t.Fatalf("remote rows = %v, %v", st, err)
	}
	res := query(t, e, "SELECT status, weight_kg, site FROM items WHERE id = 1")
	row := res.Rows[0]
	if row[0].Str() != "active" || row[2].Str() != "legacy" {
		t.Errorf("read-back = %v", row)
	}
	if kg := row[1].Float(); kg < 45.35 || kg > 45.37 {
		t.Errorf("weight round trip = %v", kg)
	}
	// Remote representation is really pounds and codes.
	raw := queryRemote(t, legacy)
	if raw[0][1].Str() != "A" {
		t.Errorf("remote code = %v, want A", raw[0][1])
	}
	if lbs := raw[0][2].Float(); lbs < 99.9 || lbs > 100.1 {
		t.Errorf("remote lbs = %v, want ~100", lbs)
	}
}

func queryRemote(t *testing.T, s *relstore.Store) []types.Row {
	t.Helper()
	it, err := s.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestInsertConflictingConstRejected(t *testing.T) {
	e, _ := newMediatedEngine(t)
	// site is fixed to 'legacy' by the mapping; storing another value
	// would silently change on read-back, so it must be rejected.
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg, site) VALUES (1, 'active', 1, 'other')"); err == nil {
		t.Error("conflicting constant column must be rejected")
	}
	// Matching or NULL const value is fine.
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg, site) VALUES (2, 'active', 1, 'legacy')"); err != nil {
		t.Errorf("matching constant rejected: %v", err)
	}
}

// addHospitals maps patients(id INT, gender STRING, weight_kg FLOAT,
// site STRING) onto two stores reached as wrap makes them, each holding
// the site as a constant of its fragment: hospA.pat(pid, sex codes M/F,
// kg), site 'A', with patients 1–3, and hospB.people(weight_lbs,
// person_id, gender), site 'B', with patient 4.
func addHospitals(t *testing.T, e *Engine, wrap func(source.Source) source.Source) (hospA, hospB *relstore.Store) {
	t.Helper()
	hospA, hospB = relstore.New("hospA"), relstore.New("hospB")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(hospA.CreateTable("pat", types.NewSchema(
		types.Column{Name: "pid", Type: types.KindInt},
		types.Column{Name: "sex", Type: types.KindString},
		types.Column{Name: "kg", Type: types.KindFloat},
	), 0))
	must(hospB.CreateTable("people", types.NewSchema(
		types.Column{Name: "weight_lbs", Type: types.KindFloat},
		types.Column{Name: "person_id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
	), 1))
	_, err := hospA.Insert(ctx, "pat", []types.Row{
		{types.NewInt(1), types.NewString("F"), types.NewFloat(61)},
		{types.NewInt(2), types.NewString("M"), types.NewFloat(83)},
		{types.NewInt(3), types.NewString("F"), types.NewFloat(55)},
	})
	must(err)
	_, err = hospB.Insert(ctx, "people", []types.Row{{types.NewFloat(134.5), types.NewInt(4), types.NewString("female")}})
	must(err)
	cat := e.Catalog()
	must(cat.AddSource(wrap(hospA)))
	must(cat.AddSource(wrap(hospB)))
	must(cat.DefineTable("patients", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "gender", Type: types.KindString},
		types.Column{Name: "weight_kg", Type: types.KindFloat},
		types.Column{Name: "site", Type: types.KindString},
	)))
	siteA, siteB := types.NewString("A"), types.NewString("B")
	must(cat.MapFragment(ctx, "patients", &catalog.Fragment{Source: "hospA", RemoteTable: "pat",
		Columns: []catalog.ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1, ValueMap: map[string]string{"M": "male", "F": "female"}},
			{RemoteCol: 2},
			{RemoteCol: -1, Const: &siteA},
		}}))
	must(cat.MapFragment(ctx, "patients", &catalog.Fragment{Source: "hospB", RemoteTable: "people",
		Columns: []catalog.ColumnMapping{
			{RemoteCol: 1},
			{RemoteCol: 2},
			{RemoteCol: 0, Scale: 0.453592},
			{RemoteCol: -1, Const: &siteB},
		}}))
	return hospA, hospB
}

// callCounter is a relstore that counts the calls that reach it: each
// sub-query (Execute) and each autocommit or transactional write.
type callCounter struct {
	*relstore.Store
	calls int
}

func (c *callCounter) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	c.calls++
	return c.Store.Execute(ctx, q)
}

func (c *callCounter) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	c.calls++
	return c.Store.Update(ctx, table, filter, set)
}

func (c *callCounter) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	c.calls++
	return c.Store.Delete(ctx, table, filter)
}

func (c *callCounter) BeginTx(ctx context.Context) (source.Tx, error) {
	c.calls++
	return c.Store.BeginTx(ctx)
}

// TestFalseTranslationPrunes: a conjunct over a value-mapped column whose
// constant no remote code stands for selects no row the fragment holds,
// so the fragment is pruned — the read sends no sub-query and the write
// no DELETE or UPDATE — where it used to be pushed as `where false`. A
// constant that has a code is asked as before.
func TestFalseTranslationPrunes(t *testing.T) {
	var counter *callCounter
	e, _ := newMediatedEngineVia(t, func(st source.Source) source.Source {
		counter = &callCounter{Store: st.(*relstore.Store)}
		return counter
	})
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 10)"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stmt  string
		rows  int64
		calls int
	}{
		{"SELECT id FROM items WHERE status = 'A'", 0, 0},
		{"DELETE FROM items WHERE status = 'A'", 0, 0},
		{"UPDATE items SET weight_kg = 1 WHERE status = 'A'", 0, 0},
		{"SELECT id FROM items WHERE status = 'active'", 1, 1},
		{"UPDATE items SET weight_kg = 1 WHERE status = 'active'", 1, 1},
	} {
		counter.calls = 0
		var n int64
		var err error
		if strings.HasPrefix(c.stmt, "SELECT") {
			var res *Result
			if res, err = e.Query(ctx, c.stmt); err == nil {
				n = int64(len(res.Rows))
			}
		} else {
			n, err = e.Exec(ctx, c.stmt)
		}
		if err != nil || n != c.rows || counter.calls != c.calls {
			t.Errorf("%s: %d rows, %d source calls, %v; want %d rows, %d calls", c.stmt, n, counter.calls, err, c.rows, c.calls)
		}
	}
	if out, err := e.Explain(ctx, "SELECT id FROM items WHERE status = 'A'"); err != nil || strings.Contains(out, "FragScan") {
		t.Errorf("EXPLAIN (%v) still scans the fragment:\n%s", err, out)
	}
}

// TestConstantColumnIsWhatTheFragmentHolds: a constant-mapped column is
// part of what a fragment holds, in every wrapper class. A conjunct over
// it is decided at planning — the fragment is pruned or the conjunct
// dropped — so a write's WHERE may name it; an INSERT is routed by it;
// and an UPDATE of it moves the row to the fragment that holds the new
// value, under one global transaction. Before, the DELETE was refused as
// not expressible, the INSERT was ambiguous, the UPDATE was refused and
// the reads shipped every row to the mediator's filter.
func TestConstantColumnIsWhatTheFragmentHolds(t *testing.T) {
	for _, c := range wrapperClasses {
		t.Run(c.name, func(t *testing.T) {
			wrap := func(st source.Source) source.Source { return c.wrap(t, st) }
			e, legacy := newMediatedEngineVia(t, wrap)
			hospA, hospB := addHospitals(t, e, wrap)
			for _, stmt := range []string{
				"INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 10)",
				"INSERT INTO items (id, status, weight_kg, site) VALUES (2, 'inactive', 20, 'legacy')",
			} {
				if _, err := e.Exec(ctx, stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}

			for _, p := range []struct{ q, has, hasNot string }{
				{"SELECT id FROM items WHERE site = 'elsewhere'", "Values", "FragScan"},
				{"SELECT id FROM items WHERE site = 'legacy' AND id = 1", "where (id = 1)", "site"},
				{"SELECT id FROM patients WHERE site = 'B'", "FragScan hospB.people", "hospA"},
				{"SELECT id FROM patients WHERE site = 'A' OR id = 4", "Union", "Filter"},
			} {
				out, err := e.Explain(ctx, p.q)
				if err != nil || !strings.Contains(out, p.has) || strings.Contains(out, p.hasNot) {
					t.Errorf("EXPLAIN %s (%v) wants %q and no %q:\n%s", p.q, err, p.has, p.hasNot, out)
				}
			}
			wantRows(t, query(t, e, "SELECT id FROM patients WHERE site = 'A' OR id = 4"), false, "(1)", "(2)", "(3)", "(4)")

			for _, w := range []struct {
				stmt string
				n    int64
			}{
				{"DELETE FROM items WHERE site = 'elsewhere'", 0},
				{"DELETE FROM items WHERE site = 'legacy' AND id = 1", 1},
				{"UPDATE items SET status = 'active' WHERE site = 'legacy'", 1},
				{"INSERT INTO patients VALUES (5, 'male', 90.7184, 'B')", 1},
				{"UPDATE patients SET site = 'B' WHERE id = 3", 1},
			} {
				if n, err := e.Exec(ctx, w.stmt); err != nil || n != w.n {
					t.Fatalf("%s: %d rows, %v; want %d", w.stmt, n, err, w.n)
				}
			}
			// Patient 3 moved with its weight, and patient 5 is stored in
			// pounds: 90.7184 kg is 200 lb.
			for _, r := range []struct {
				st          source.Source
				table, want string
			}{
				{legacy, "t", "(2, A, 44.09248840367555)"},
				{hospA, "pat", "(1, F, 61) (2, M, 83)"},
				{hospB, "people", "(121.25434311010777, 3, female) (134.5, 4, female) (200, 5, male)"},
			} {
				if got := remoteRows(t, r.st, r.table); got != r.want {
					t.Errorf("%s.%s holds %s; want %s", r.st.Name(), r.table, got, r.want)
				}
			}
			wantRows(t, query(t, e, "SELECT id, gender, site FROM patients WHERE id IN (3, 5)"), false, "(3, female, B)", "(5, male, B)")
			log := e.Coordinator().Log().Decisions()
			if len(log) != 1 || !log[0].Commit || !slices.Equal(log[0].Participants, []string{"hospA", "hospB"}) {
				t.Errorf("coordinator decisions %+v; want one commit of hospA and hospB", log)
			}

			if _, err := e.Exec(ctx, "INSERT INTO patients VALUES (6, 'male', 70, NULL)"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
				t.Errorf("a patient of no site: %v; want the INSERT ambiguous", err)
			}
		})
	}
}

func TestUpdateThroughMappings(t *testing.T) {
	e, legacy := newMediatedEngine(t)
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 10)"); err != nil {
		t.Fatal(err)
	}
	// Value-mapped SET: status 'inactive' becomes code 'I' remotely.
	n, err := e.Exec(ctx, "UPDATE items SET status = 'inactive' WHERE id = 1")
	if err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	raw := queryRemote(t, legacy)
	if raw[0][1].Str() != "I" {
		t.Errorf("remote code after update = %v", raw[0][1])
	}
	// Affine SET with a constant: 20 kg becomes ~44.1 lbs remotely.
	if _, err := e.Exec(ctx, "UPDATE items SET weight_kg = 20 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	raw = queryRemote(t, legacy)
	if lbs := raw[0][2].Float(); lbs < 44 || lbs > 44.2 {
		t.Errorf("remote lbs after update = %v", lbs)
	}
	// Value-mapped predicate translates too.
	res := query(t, e, "SELECT COUNT(*) FROM items WHERE status = 'inactive'")
	wantRows(t, res, false, "(1)")
	// SET of a constant-mapped column is rejected.
	if _, err := e.Exec(ctx, "UPDATE items SET site = 'x'"); err == nil {
		t.Error("updating a constant-mapped column must fail")
	}
	// Computed SET over a transformed column is not translatable.
	if _, err := e.Exec(ctx, "UPDATE items SET weight_kg = weight_kg * 2"); err == nil {
		t.Error("computed update over an affine column must fail clearly")
	}
}

func TestDeleteThroughMappings(t *testing.T) {
	e, legacy := newMediatedEngine(t)
	for _, stmt := range []string{
		"INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 10)",
		"INSERT INTO items (id, status, weight_kg) VALUES (2, 'inactive', 20)",
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.Exec(ctx, "DELETE FROM items WHERE status = 'inactive'")
	if err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	raw := queryRemote(t, legacy)
	if len(raw) != 1 || raw[0][0].Int() != 1 {
		t.Errorf("remaining = %v", raw)
	}
}

func TestIdentityUpdateWithExpression(t *testing.T) {
	// Identity-mapped columns accept computed SET values.
	e := newTestEngine(t)
	n, err := e.Exec(ctx, "UPDATE customers SET balance = balance * 2 + 1 WHERE id = 1")
	if err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	res := query(t, e, "SELECT balance FROM customers WHERE id = 1")
	wantRows(t, res, false, "(201)")
}

func TestInsertParamsAndMultiRow(t *testing.T) {
	e := newTestEngine(t)
	n, err := e.Exec(ctx,
		"INSERT INTO customers (id, name, region, balance) VALUES (?, ?, 'east', ?), (?, 'greg', 'west', 1)",
		types.NewInt(50), types.NewString("fred"), types.NewFloat(7),
		types.NewInt(51))
	if err != nil || n != 2 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	res := query(t, e, "SELECT name FROM customers WHERE id >= 50")
	wantRows(t, res, false, "(fred)", "(greg)")
}

// TestWriteErrorMessagesAreActionable: an UPDATE that writes a
// constant-mapped column moves its rows, and one whose row no fragment
// holds any more names the constant as a reason.
func TestWriteErrorMessagesAreActionable(t *testing.T) {
	e, _ := newMediatedEngine(t)
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 10)"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Exec(ctx, "UPDATE items SET site = 'x'")
	if err == nil || !strings.Contains(err.Error(), "constant-mapped") {
		t.Errorf("error should explain the constant mapping: %v", err)
	}
}

// TestUntranslatableConjunctIsNamed: a write's WHERE is translated
// conjunct by conjunct, and one that has no exact remote form — equality
// on a unit-converted column — refuses the statement by name, beside one
// that translates.
func TestUntranslatableConjunctIsNamed(t *testing.T) {
	e, legacy := newMediatedEngine(t)
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 20)"); err != nil {
		t.Fatal(err)
	}
	before := remoteRows(t, legacy, "t")
	for _, stmt := range []string{
		"UPDATE items SET status = 'inactive' WHERE id = 1 AND weight_kg = 20",
		"DELETE FROM items WHERE id = 1 AND weight_kg = 20",
	} {
		_, err := e.Exec(ctx, stmt)
		if err == nil || !strings.Contains(err.Error(), "predicate (weight_kg = 20) is not expressible at legacy.t") {
			t.Errorf("%s: %v; want the conjunct weight_kg = 20 named", stmt, err)
		}
	}
	if after := remoteRows(t, legacy, "t"); after != before {
		t.Errorf("a refused statement wrote: %s", after)
	}
}

// TestWriteWhereNoRemoteValueMatches: 'A' is a remote code, so no remote
// row reads as the global value 'A' — status = 'A' selects nothing at the
// source, and a write under it affects 0 rows where it was refused as
// not expressible. Storing 'A' is still refused: it would read back as
// 'active'.
func TestWriteWhereNoRemoteValueMatches(t *testing.T) {
	e, legacy := newMediatedEngine(t)
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (1, 'active', 20)"); err != nil {
		t.Fatal(err)
	}
	before := remoteRows(t, legacy, "t")
	for _, stmt := range []string{
		"DELETE FROM items WHERE status = 'A'",
		"UPDATE items SET status = 'inactive' WHERE status = 'A'",
	} {
		if n, err := e.Exec(ctx, stmt); n != 0 || err != nil {
			t.Errorf("%s = %d, %v; want 0 rows", stmt, n, err)
		}
	}
	if _, err := e.Exec(ctx, "INSERT INTO items (id, status, weight_kg) VALUES (2, 'A', 20)"); err == nil {
		t.Error("INSERT of status 'A' was accepted")
	}
	if after := remoteRows(t, legacy, "t"); after != before {
		t.Errorf("remote rows %s, were %s", after, before)
	}
}

// TestMoveWithoutTransactionsIsRefused: a move over a source without
// transactions could stop between a row's delete and its insert and lose
// the row, so it is refused by a typed error that names the fragment —
// even where the row stays in its fragment — and nothing is written.
func TestMoveWithoutTransactionsIsRefused(t *testing.T) {
	for _, c := range wrapperClasses {
		t.Run(c.name, func(t *testing.T) {
			st := kvstore.New("one")
			e := twoFragmentsOneSource(t, st, c.wrap(t, st), func(name string, schema *types.Schema) error {
				return st.CreateBucket(name, schema, 0)
			})
			before := remoteRows(t, st, "lo") + " | " + remoteRows(t, st, "hi")
			for _, stmt := range []string{"UPDATE t SET id = 2 WHERE id = 150", "UPDATE t SET id = 2 WHERE id = 1"} {
				_, err := e.Exec(ctx, stmt)
				var refused *TxnRequiredError
				if !errors.As(err, &refused) || refused.Source != "one" {
					t.Errorf("%s: %v; want a TxnRequiredError for a move at one", stmt, err)
				}
			}
			if after := remoteRows(t, st, "lo") + " | " + remoteRows(t, st, "hi"); after != before {
				t.Errorf("a refused move wrote: %s; before %s", after, before)
			}
		})
	}
}

// TestKVInsertIsAllOrNothing: a kvstore decides every row of an INSERT
// before it stores any, so a batch whose second row repeats the first
// one's key leaves the bucket as it was, in every wrapper class. Before,
// the first row stayed behind.
func TestKVInsertIsAllOrNothing(t *testing.T) {
	for _, c := range wrapperClasses {
		t.Run(c.name, func(t *testing.T) {
			st := kvstore.New("one")
			e := twoFragmentsOneSource(t, st, c.wrap(t, st), func(name string, schema *types.Schema) error {
				return st.CreateBucket(name, schema, 0)
			})
			before := remoteRows(t, st, "lo")
			_, err := e.Exec(ctx, "INSERT INTO t VALUES (2, 'b'), (2, 'c')")
			if err == nil || !strings.Contains(err.Error(), "duplicate key 2") {
				t.Fatalf("insert of one key twice: %v", err)
			}
			if after := remoteRows(t, st, "lo"); after != before {
				t.Errorf("the refused INSERT left %s; want %s", after, before)
			}
		})
	}
}

// twoFragmentsOneSource maps t(id INT, v STRING) onto two tables of one
// store, in catalog order lo (id < 100) then hi (id >= 100), each
// holding one row: 1 and 150. hi keeps v as an INT, so that a string
// written through the mapping is refused there and accepted at lo. The
// engine reaches the store as src: the store itself, or a wrapper of it.
func twoFragmentsOneSource(t *testing.T, st, src source.Source, create func(name string, schema *types.Schema) error) *Engine {
	t.Helper()
	col := func(v types.Kind) *types.Schema {
		return types.NewSchema(types.Column{Name: "id", Type: types.KindInt}, types.Column{Name: "v", Type: v})
	}
	if err := create("lo", col(types.KindString)); err != nil {
		t.Fatal(err)
	}
	if err := create("hi", col(types.KindInt)); err != nil {
		t.Fatal(err)
	}
	w := st.(source.Writer)
	if _, err := w.Insert(ctx, "lo", []types.Row{{types.NewInt(1), types.NewString("a")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Insert(ctx, "hi", []types.Row{{types.NewInt(150), types.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.Catalog().AddSource(src); err != nil {
		t.Fatal(err)
	}
	if err := e.Catalog().DefineTable("t", col(types.KindString)); err != nil {
		t.Fatal(err)
	}
	id, hundred := expr.NewColRef("", "id"), expr.NewConst(types.NewInt(100))
	for _, f := range []*catalog.Fragment{
		{RemoteTable: "lo", Where: expr.NewBinary(expr.OpLt, id, hundred)},
		{RemoteTable: "hi", Where: expr.NewBinary(expr.OpGe, id, hundred)},
	} {
		f.Source = src.Name()
		f.Columns = []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}
		if err := e.Catalog().MapFragment(ctx, "t", f); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// remoteRows renders a component table's rows, sorted, for comparison.
func remoteRows(t *testing.T, s source.Source, table string) string {
	t.Helper()
	it, err := s.Execute(ctx, source.NewScan(table))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// wrapperClasses are the ways a store reaches the mediator: as itself,
// behind a wire server, behind the resilience guard. The last two
// implement every facet whatever the store does, so what the write path
// does with a source must follow from the store's capability vector.
var wrapperClasses = []struct {
	name string
	wrap func(*testing.T, source.Source) source.Source
}{
	{"in process", func(_ *testing.T, st source.Source) source.Source { return st }},
	{"wire", overWire},
	{"guarded", func(_ *testing.T, st source.Source) source.Source {
		return resilience.WrapSource(st, chaosPolicy())
	}},
}

// TestSingleSourceMultiFragmentWriteIsAtomic: a statement that touches
// two fragments of one source and fails on the second leaves nothing
// behind on the first when the source has transactions, and leaves the
// same thing behind every time — the first fragment in catalog order,
// written — when it has none. Whichever wrapper class the source is
// reached through; and one that succeeds on both fragments does, in
// every class (the kvstore behind a wire server used to be asked for a
// transaction, because its client could have begun one).
func TestSingleSourceMultiFragmentWriteIsAtomic(t *testing.T) {
	const rounds = 200
	failing := []struct{ name, stmt string }{
		{"insert", "INSERT INTO t VALUES (2, 'b'), (150, '8')"}, // 150 is a duplicate key at hi
		{"update", "UPDATE t SET v = 'abc'"},                    // 'abc' is no INT at hi
	}
	deleteBoth := func(t *testing.T, e *Engine) {
		t.Helper()
		if n, err := e.Exec(ctx, "DELETE FROM t WHERE id > 0"); err != nil || n != 2 {
			t.Errorf("DELETE over both fragments: %d rows, %v; want 2", n, err)
		}
	}

	t.Run("relstore", func(t *testing.T) {
		for _, c := range wrapperClasses {
			t.Run(c.name, func(t *testing.T) {
				st := relstore.New("one")
				e := twoFragmentsOneSource(t, st, c.wrap(t, st), func(name string, schema *types.Schema) error {
					return st.CreateTable(name, schema, 0)
				})
				before := remoteRows(t, st, "lo")
				for _, f := range failing {
					for i := 0; i < rounds; i++ {
						if _, err := e.Exec(ctx, f.stmt); err == nil {
							t.Fatalf("%s: %s succeeded; the test needs it to fail at hi", f.name, f.stmt)
						}
						if got := remoteRows(t, st, "lo"); got != before {
							t.Fatalf("%s, round %d: the failed statement left its write to lo behind: %s", f.name, i, got)
						}
					}
				}
				deleteBoth(t, e)
			})
		}
	})

	t.Run("kvstore", func(t *testing.T) {
		for _, c := range wrapperClasses {
			t.Run(c.name, func(t *testing.T) {
				st := kvstore.New("one")
				e := twoFragmentsOneSource(t, st, c.wrap(t, st), func(name string, schema *types.Schema) error {
					return st.CreateBucket(name, schema, 0)
				})
				two := expr.NewBinary(expr.OpEq, expr.NewBoundColRef(0, types.KindInt, "id"), expr.NewConst(types.NewInt(2)))
				for i := 0; i < rounds; i++ {
					_, err := e.Exec(ctx, failing[0].stmt)
					if err == nil || !strings.Contains(err.Error(), "duplicate key") {
						t.Fatalf("insert of a duplicate key: %v", err)
					}
					if got := remoteRows(t, st, "lo"); !strings.Contains(got, "b") {
						t.Fatalf("round %d reached hi before lo: fragments are not written in catalog order (lo: %s)", i, got)
					}
					if _, err := st.Delete(ctx, "lo", two); err != nil {
						t.Fatal(err)
					}
				}
				deleteBoth(t, e)
			})
		}
	})
}

// advertised is a source under another capability vector.
type advertised struct {
	source.Source
	caps source.Capabilities
}

func (a advertised) Capabilities() source.Capabilities { return a.caps }

// modest is a relstore, write facets and all, that advertises none.
type modest struct{ *relstore.Store }

func (modest) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterFull}
}

// TestWriteFacetsFollowTheCapabilityVector: what a source can be asked
// to write is what it advertises. One that advertises a facet it does
// not implement is an error that names it, not a failed assertion; one
// that implements what it does not advertise is not written to.
func TestWriteFacetsFollowTheCapabilityVector(t *testing.T) {
	const one, both = "INSERT INTO t VALUES (2, 'b')", "DELETE FROM t WHERE id > 0"
	for _, c := range []struct {
		name string
		// wrap hides (interface embedding) or keeps (the store embedded
		// as itself) the store's Writer and Transactional methods.
		wrap       func(*relstore.Store) source.Source
		stmt, want string
	}{
		{"says Write, implements nothing", func(st *relstore.Store) source.Source {
			return advertised{source.Source(st), source.Capabilities{Filter: source.FilterFull, Write: true}}
		}, one, "source one advertises filter=full+write and implements less"},
		{"says Write and Txn, implements nothing", func(st *relstore.Store) source.Source {
			return advertised{source.Source(st), source.Capabilities{Filter: source.FilterFull, Write: true, Txn: true}}
		}, both, "source one advertises filter=full+write+txn and implements less"},
		{"implements Writer, does not say so", func(st *relstore.Store) source.Source {
			return modest{st}
		}, one, "source one is not writable"},
	} {
		st := relstore.New("one")
		e := twoFragmentsOneSource(t, st, c.wrap(st), func(name string, schema *types.Schema) error {
			return st.CreateTable(name, schema, 0)
		})
		before := remoteRows(t, st, "lo") + remoteRows(t, st, "hi")
		if _, err := e.Exec(ctx, c.stmt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
		if after := remoteRows(t, st, "lo") + remoteRows(t, st, "hi"); after != before {
			t.Errorf("%s: the refused statement wrote: %s", c.name, after)
		}
	}
}

// TestWrapperWritesAgree maps one global table g(id INT, n INT) onto a
// relstore, a kvstore and a docstore in turn, each reached through every
// wrapper class, and runs the same statements against each: a statement
// reads back the same rows whichever wrapper carried it, or every
// wrapper refused it and the rows are as they were. Before one rule made
// a written row, the docstore stored the string an UPDATE's SET made
// for an INT column, and no SELECT of g ran again.
func TestWrapperWritesAgree(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "n", Type: types.KindInt, Nullable: true},
	)
	stores := []struct {
		kind string
		make func() (source.Source, error)
	}{
		{"relstore", func() (source.Source, error) {
			st := relstore.New("s")
			return st, st.CreateTable("g", schema, 0)
		}},
		{"kvstore", func() (source.Source, error) {
			st := kvstore.New("s")
			return st, st.CreateBucket("g", schema, 0)
		}},
		{"docstore", func() (source.Source, error) {
			st := docstore.New("s")
			return st, st.CreateCollection("g", []docstore.FieldMap{
				{Column: schema.Columns[0], Path: "id"}, {Column: schema.Columns[1], Path: "n"}})
		}},
	}
	cases := []struct{ stmt, want string }{
		{"INSERT INTO g VALUES (1, 10), (2, '7')", "2 rows: (1, 10) (2, 7)"},
		{"INSERT INTO g VALUES (3, 'abc')", "refused: (1, 10) (2, 7)"},
		{"UPDATE g SET n = CAST(id AS STRING) || 'x' WHERE id = 1", "refused: (1, 10) (2, 7)"},
		{"UPDATE g SET n = n + 1 WHERE id = 2", "1 rows: (1, 10) (2, 8)"},
		{"DELETE FROM g WHERE id = 1", "1 rows: (2, 8)"},
	}
	readBack := func(e *Engine) string {
		res, err := e.Query(ctx, "SELECT id, n FROM g ORDER BY id")
		if err != nil {
			return "SELECT: " + err.Error()
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		return strings.Join(out, " ")
	}
	for _, s := range stores {
		for _, c := range wrapperClasses {
			t.Run(s.kind+"/"+c.name, func(t *testing.T) {
				st, err := s.make()
				if err != nil {
					t.Fatal(err)
				}
				src := c.wrap(t, st)
				e := New()
				if err := e.Catalog().AddSource(src); err != nil {
					t.Fatal(err)
				}
				if err := e.Catalog().DefineTable("g", schema); err != nil {
					t.Fatal(err)
				}
				if err := e.Catalog().MapSimple(ctx, "g", src.Name(), "g"); err != nil {
					t.Fatal(err)
				}
				for _, tc := range cases {
					n, err := e.Exec(ctx, tc.stmt)
					got := fmt.Sprintf("%d rows: %s", n, readBack(e))
					if err != nil {
						got = "refused: " + readBack(e)
					}
					if got != tc.want {
						t.Errorf("%s: %s (%v); want %s", tc.stmt, got, err, tc.want)
					}
				}
			})
		}
	}
}
