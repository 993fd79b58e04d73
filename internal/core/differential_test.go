package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

// TestDifferentialSingleTable fuzzes single-table queries against a
// naive reference evaluation over the materialized global table: the
// whole pipeline (parse → optimize → decompose → pushdown → compensate →
// translate) must agree with direct filtering. Each predicate is also
// asked of a derived table that renames every column and computes one,
// written over its alias, and of a view over orders: the Projects they
// stack compose into one, and must return the same rows.
func TestDifferentialSingleTable(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CreateView("orders_view", "SELECT oid, cust_id, sku, qty FROM orders"); err != nil {
		t.Fatal(err)
	}
	// Materialize the reference copy of the multi-fragment orders table.
	ref := query(t, e, "SELECT * FROM orders")
	schema := ref.Schema

	rng := rand.New(rand.NewSource(99))
	cols := []string{"oid", "cust_id", "sku", "qty"}
	renamed := map[string]string{"oid": "d.o", "cust_id": "d.c", "sku": "d.s", "qty": "d.q"}
	const derived = "SELECT d.o, d.c, d.s, d.q2 - d.q FROM " +
		"(SELECT oid AS o, cust_id AS c, sku AS s, qty AS q, qty * 2 AS q2 FROM orders) d WHERE "

	// randPred returns a predicate as text with each column named by
	// name, and as a tree over the bare column names.
	randPred := func() (func(name func(string) string) string, expr.Expr) {
		type atom struct {
			col, op string
			val     int64
		}
		var atoms []atom
		var ands []bool
		var exprs []expr.Expr
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			a := atom{cols[rng.Intn(len(cols))], []string{"=", "<", ">", "<=", ">=", "<>"}[rng.Intn(6)], int64(rng.Intn(600))}
			atoms = append(atoms, a)
			opMap := map[string]expr.BinOp{
				"=": expr.OpEq, "<": expr.OpLt, ">": expr.OpGt,
				"<=": expr.OpLe, ">=": expr.OpGe, "<>": expr.OpNe,
			}
			exprs = append(exprs, expr.NewBinary(opMap[a.op],
				expr.NewColRef("", a.col), expr.NewConst(types.NewInt(a.val))))
		}
		tree := exprs[0]
		for i := 1; i < len(exprs); i++ {
			conj := rng.Intn(2) == 0
			ands = append(ands, conj)
			if conj {
				tree = expr.NewBinary(expr.OpAnd, tree, exprs[i])
			} else {
				tree = expr.NewBinary(expr.OpOr, tree, exprs[i])
			}
		}
		text := func(name func(string) string) string {
			part := func(a atom) string { return fmt.Sprintf("%s %s %d", name(a.col), a.op, a.val) }
			out := part(atoms[0])
			for i, conj := range ands {
				join := "OR"
				if conj {
					join = "AND"
				}
				out = fmt.Sprintf("(%s) %s (%s)", out, join, part(atoms[i+1]))
			}
			return out
		}
		return text, tree
	}

	for trial := 0; trial < 200; trial++ {
		predText, predTree := randPred()
		bound, err := expr.Bind(predTree, schema)
		if err != nil {
			t.Fatalf("trial %d bind: %v", trial, err)
		}
		// Reference evaluation.
		var want []string
		for _, r := range ref.Rows {
			ok, err := expr.EvalBool(bound, r)
			if err != nil {
				t.Fatalf("trial %d eval: %v", trial, err)
			}
			if ok {
				want = append(want, r.String())
			}
		}
		sort.Strings(want)
		sqlPred := predText(func(c string) string { return c })
		for _, q := range []string{
			"SELECT * FROM orders WHERE " + sqlPred,
			derived + predText(func(c string) string { return renamed[c] }),
			"SELECT * FROM orders_view WHERE " + sqlPred,
		} {
			got := rowsAsStrings(query(t, e, q))
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, q, got, want)
			}
		}
	}
}

// TestDifferentialAggregates fuzzes grouped aggregates against reference
// accumulation.
func TestDifferentialAggregates(t *testing.T) {
	e := newTestEngine(t)
	ref := query(t, e, "SELECT * FROM orders")
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 50; trial++ {
		limit := int64(rng.Intn(500)) // filter bound on oid
		q := fmt.Sprintf(
			"SELECT sku, COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM orders WHERE oid < %d GROUP BY sku", limit)
		got := rowsAsStrings(query(t, e, q))
		sort.Strings(got)

		type agg struct{ count, sum, min, max int64 }
		groups := map[int64]*agg{}
		for _, r := range ref.Rows {
			if r[0].Int() >= limit {
				continue
			}
			sku, qty := r[2].Int(), r[3].Int()
			a, ok := groups[sku]
			if !ok {
				a = &agg{min: qty, max: qty}
				groups[sku] = a
			}
			a.count++
			a.sum += qty
			if qty < a.min {
				a.min = qty
			}
			if qty > a.max {
				a.max = qty
			}
		}
		var want []string
		for sku, a := range groups {
			want = append(want, fmt.Sprintf("(%d, %d, %d, %d, %d)", sku, a.count, a.sum, a.min, a.max))
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, q, got, want)
		}
	}
}

// TestDifferentialTopK fuzzes ORDER BY/LIMIT against reference sorting.
func TestDifferentialTopK(t *testing.T) {
	e := newTestEngine(t)
	ref := query(t, e, "SELECT * FROM orders")
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		limit := 1 + rng.Intn(8)
		desc := rng.Intn(2) == 0
		dir := "ASC"
		if desc {
			dir = "DESC"
		}
		q := fmt.Sprintf("SELECT oid FROM orders ORDER BY oid %s LIMIT %d", dir, limit)
		got := rowsAsStrings(query(t, e, q))

		oids := make([]int64, len(ref.Rows))
		for i, r := range ref.Rows {
			oids[i] = r[0].Int()
		}
		sort.Slice(oids, func(a, b int) bool {
			if desc {
				return oids[a] > oids[b]
			}
			return oids[a] < oids[b]
		})
		n := limit
		if n > len(oids) {
			n = len(oids)
		}
		want := make([]string, n)
		for i := 0; i < n; i++ {
			want[i] = fmt.Sprintf("(%d)", oids[i])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, q, got, want)
		}
	}
}
