package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"gis/internal/catalog"
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
	legacy := relstore.New("legacy")
	if err := legacy.CreateTable("t", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "st", Type: types.KindString},
		types.Column{Name: "lbs", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	e := New()
	if err := e.Catalog().AddSource(legacy); err != nil {
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

func TestWriteErrorMessagesAreActionable(t *testing.T) {
	e, _ := newMediatedEngine(t)
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
		p := chaosPolicy()
		return resilience.WrapSource(st, p, resilience.NewTracker(p).For(st.Name()))
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
