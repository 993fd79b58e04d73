package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gis/internal/catalog"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/sql"
	"gis/internal/types"
)

// writeSpan is writeEngine's partition width: bank p of accounts holds
// ids p·writeSpan up to (p+1)·writeSpan.
const writeSpan = 100

// writeEngine lays out, in process, the tables the write stream writes:
// accounts range-partitioned on id over bank0…bank3, each bank holding
// ten accounts at its two ends; cents, whose amount a unit conversion
// maps (global = remote·100), on src_cents; and tagged, whose region a
// value map codes, on src_tag. It returns the engine and its stores by
// name, with the table each holds.
func writeEngine(t *testing.T) (*Engine, map[string]*relstore.Store) {
	t.Helper()
	e := New()
	cat := e.Catalog()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	stores := map[string]*relstore.Store{}
	store := func(name, table string, schema *types.Schema, rows []types.Row) {
		st := relstore.New(name)
		check(st.CreateTable(table, schema, 0))
		mustInsert(t, st, table, rows)
		check(cat.AddSource(st))
		stores[name] = st
	}
	acct := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	check(cat.DefineTable("accounts", acct))
	for p := int64(0); p < 4; p++ {
		var rows []types.Row
		for i := int64(0); i < 5; i++ {
			rows = append(rows, types.Row{types.NewInt(p*writeSpan + i), types.NewFloat(100)},
				types.Row{types.NewInt((p+1)*writeSpan - 5 + i), types.NewFloat(100)})
		}
		name := fmt.Sprintf("bank%d", p)
		store(name, "acct", acct, rows)
		where, err := sql.ParseExpr(fmt.Sprintf("id >= %d AND id < %d", p*writeSpan, (p+1)*writeSpan))
		check(err)
		check(cat.MapFragment(ctx, "accounts", &catalog.Fragment{Source: name, RemoteTable: "acct",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}, Where: where}))
	}
	amounts := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
	)
	var rows []types.Row
	for i := int64(0); i < 20; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewFloat(float64(i) / 4)})
	}
	store("src_cents", "cents", amounts, rows)
	check(cat.DefineTable("cents", amounts))
	check(cat.MapFragment(ctx, "cents", &catalog.Fragment{Source: "src_cents", RemoteTable: "cents",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1, Scale: 100}}}))
	regions := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "region", Type: types.KindString},
	)
	rows = nil
	for i := int64(0); i < 20; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewString([]string{"N", "S", "E", "W"}[i%4])})
	}
	store("src_tag", "tagged", regions, rows)
	check(cat.DefineTable("tagged", regions))
	check(cat.MapFragment(ctx, "tagged", &catalog.Fragment{Source: "src_tag", RemoteTable: "tagged",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1,
			ValueMap: map[string]string{"N": "north", "S": "south", "E": "east", "W": "west"}}}}))
	return e, stores
}

// writeTemplates are the stream's statements: whether the statement cache
// keeps one, and how a call's values are drawn. accounts' ids fall in
// every bank, in none (below 0, from 400), and in ranges that stay in a
// bank or straddle a boundary. A parameter that reaches a component
// through a unit conversion or a value map — cents' amount, tagged's
// region — is translated into a constant of its own, so those writes are
// not kept; an INSERT into either is, since its row is converted on every
// call, and so is one whose parameters stand on identity-mapped columns
// only.
var writeTemplates = []struct {
	sql    string
	kept   bool
	params func(r *rand.Rand) []types.Value
}{
	{"INSERT INTO accounts (id, balance) VALUES (?, ?)", true, func(r *rand.Rand) []types.Value {
		id := writeID(r)
		if r.Intn(3) > 0 {
			id = int64(r.Intn(4))*writeSpan + 10 + int64(r.Intn(80)) // a bank's middle
		}
		return []types.Value{types.NewInt(id), types.NewFloat(float64(r.Intn(400)) / 4)}
	}},
	{"DELETE FROM accounts WHERE id = ?", true, func(r *rand.Rand) []types.Value { return ints(writeID(r)) }},
	{"UPDATE accounts SET balance = balance + ? WHERE id = ?", true, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewFloat(float64(r.Intn(40)) / 4), types.NewInt(writeID(r))}
	}},
	{"UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?", true, func(r *rand.Rand) []types.Value {
		// A boundary between banks, or a point inside one or past them all.
		b := int64(1+r.Intn(3)) * writeSpan
		if r.Intn(4) == 0 {
			b = int64(r.Intn(5*writeSpan)) - writeSpan/2
		}
		w := int64(1 + r.Intn(8))
		x := float64(1+r.Intn(40)) / 4
		return []types.Value{types.NewInt(b), types.NewFloat(x), types.NewFloat(x), types.NewInt(b - w), types.NewInt(b + w)}
	}},
	{"DELETE FROM accounts WHERE id >= ? AND id < ?", true, func(r *rand.Rand) []types.Value {
		lo := writeID(r)
		return ints(lo, lo+int64(r.Intn(4)))
	}},
	{"UPDATE accounts SET id = id + ? WHERE id = ?", false, func(r *rand.Rand) []types.Value {
		return ints(int64(r.Intn(3)-1)*writeSpan+int64(r.Intn(3)), writeID(r))
	}},
	{"INSERT INTO cents (id, amount) VALUES (?, ?)", true, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewInt(int64(20 + r.Intn(400))), types.NewFloat(float64(r.Intn(2000)))}
	}},
	{"UPDATE cents SET amount = ? WHERE id = ?", false, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewFloat(float64(r.Intn(2000))), types.NewInt(int64(r.Intn(40)))}
	}},
	{"DELETE FROM cents WHERE amount > ? AND id < ?", false, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewFloat(float64(100 + r.Intn(1900))), types.NewInt(int64(r.Intn(400)))}
	}},
	{"INSERT INTO tagged (id, region) VALUES (?, ?)", true, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewInt(int64(20 + r.Intn(400))), types.NewString(writeRegion(r))}
	}},
	{"UPDATE tagged SET region = ? WHERE id = ?", false, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewString(writeRegion(r)), types.NewInt(int64(r.Intn(40)))}
	}},
	{"DELETE FROM tagged WHERE region = ? AND id >= ?", false, func(r *rand.Rand) []types.Value {
		return []types.Value{types.NewString(writeRegion(r)), types.NewInt(int64(r.Intn(60)))}
	}},
}

// writeID draws an account id: mostly near a bank's ends, where the
// accounts are, sometimes in a bank's middle, below every bank or above.
func writeID(r *rand.Rand) int64 {
	p := int64(r.Intn(4)) * writeSpan
	switch r.Intn(8) {
	case 0:
		return -1 - int64(r.Intn(20))
	case 1:
		return 4*writeSpan + int64(r.Intn(20))
	case 2:
		return p + 10 + int64(r.Intn(80))
	default:
		return p + int64(r.Intn(10)+writeSpan-5)%writeSpan
	}
}

// writeRegion draws a region, now and then one the value map has no code
// for.
func writeRegion(r *rand.Rand) string {
	return []string{"north", "south", "east", "west", "nowhere"}[r.Intn(5)]
}

// TestKeptWritesAgree draws a seeded stream of global writes and runs
// each statement on an engine that keeps writes, every other one through
// Run, and on one whose statement cache is cleared before every
// statement, through Exec. After each, both must report the same
// affected count (or the same error) and their components must hold the
// same rows. On the keeping engine a write the
// cache keeps is kept once it succeeds (a hit later runs under a parse
// span named cached), and one it refuses never is.
func TestKeptWritesAgree(t *testing.T) {
	keep, keepStores := writeEngine(t)
	fresh, freshStores := writeEngine(t)
	keep.SetTracing(true)
	rng := rand.New(rand.NewSource(72))
	n := 400
	if testing.Short() {
		n = 200
	}
	tables := map[string]string{"bank0": "acct", "bank1": "acct", "bank2": "acct", "bank3": "acct", "src_cents": "cents", "src_tag": "tagged"}
	hits, failed := 0, 0
	for i := 0; i < n; i++ {
		tm := writeTemplates[rng.Intn(len(writeTemplates))]
		params := tm.params(rng)
		var got int64
		var gerr error
		if i%2 == 0 {
			got, gerr = keep.Exec(ctx, tm.sql, params...)
		} else { // Run's affected column is Exec's count
			var res *Result
			if res, gerr = keep.Run(ctx, tm.sql, params...); gerr == nil {
				if got = res.Rows[0][0].Int(); res.Schema.Columns[0].Name != "affected" {
					t.Fatalf("statement %d, %s %v through Run: column %s", i, tm.sql, params, res.Schema.Columns[0].Name)
				}
			}
		}
		fresh.stmts.clear()
		want, werr := fresh.Exec(ctx, tm.sql, params...)
		if fmt.Sprint(got, gerr) != fmt.Sprint(want, werr) {
			t.Fatalf("statement %d, %s %v: kept %d, %v; built afresh %d, %v", i, tm.sql, params, got, gerr, want, werr)
		}
		for name, table := range tables {
			if g, w := remoteRows(t, keepStores[name], table), remoteRows(t, freshStores[name], table); g != w {
				t.Fatalf("statement %d, %s %v: %s holds\n%s\nbuilt afresh\n%s", i, tm.sql, params, name, g, w)
			}
		}
		parse := keep.TraceLast().Data().FindAll(obs.SpanParse)
		cached := len(parse) == 1 && parse[0].Name == "cached"
		if cached {
			hits++
		}
		switch idle := keep.idlePlans(tm.sql); {
		case cached && !tm.kept:
			t.Fatalf("statement %d, %s %v: a hit of a write that is not kept", i, tm.sql, params)
		case gerr == nil && (idle > 0) != tm.kept:
			t.Fatalf("statement %d, %s %v: %d instances kept, want kept %v", i, tm.sql, params, idle, tm.kept)
		case gerr != nil:
			failed++
		}
	}
	t.Logf("%d statements: %d hits, %d refused alike on both engines", n, hits, failed)
	if hits < n/4 || failed == 0 || failed > n/2 {
		t.Errorf("%d statements, %d hits, %d refused: the stream does not exercise the cache", n, hits, failed)
	}
	if s := strings.TrimSpace(remoteRows(t, keepStores["bank1"], "acct")); s == "" {
		t.Errorf("the stream emptied bank1")
	}
}
