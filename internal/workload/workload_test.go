package workload

import (
	"context"
	"strings"
	"testing"
	"time"

	"gis/internal/types"
)

var ctx = context.Background()

func TestTwoTableLocal(t *testing.T) {
	f, err := TwoTable(context.Background(), 100, 1000, false, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM orders")
	if err != nil || res.Rows[0][0].Int() != 1000 {
		t.Fatalf("orders count = %v, %v", res, err)
	}
	res, err = f.Engine.Query(ctx,
		"SELECT COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id")
	if err != nil || res.Rows[0][0].Int() != 1000 {
		t.Fatalf("join count = %v, %v", res, err)
	}
}

func TestTwoTableRemote(t *testing.T) {
	f, err := TwoTable(context.Background(), 50, 200, true, Link{Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM orders WHERE amount < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() <= 0 {
		t.Errorf("filtered count = %v", res.Rows[0][0])
	}
}

func TestPartitionedFixture(t *testing.T) {
	f, err := Partitioned(context.Background(), 4, 250, false, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM events")
	if err != nil || res.Rows[0][0].Int() != 1000 {
		t.Fatalf("events = %v, %v", res, err)
	}
	// Partition pruning: one fragment only.
	res, err = f.Engine.Query(ctx, "SELECT COUNT(*) FROM events WHERE oid < 250")
	if err != nil || res.Rows[0][0].Int() != 250 {
		t.Fatalf("pruned = %v, %v", res, err)
	}
}

func TestHeterogeneousViewsAgree(t *testing.T) {
	f, err := Heterogeneous(context.Background(), 500, false, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nat, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM orders_native WHERE rg = 'N'")
	if err != nil {
		t.Fatal(err)
	}
	med, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM orders_mediated WHERE region = 'north'")
	if err != nil {
		t.Fatal(err)
	}
	if nat.Rows[0][0].Int() != med.Rows[0][0].Int() {
		t.Errorf("native %v != mediated %v", nat.Rows[0][0], med.Rows[0][0])
	}
	// Unit conversion: mediated amounts are 1/100 of native cents.
	sums, err := f.Engine.Query(ctx, "SELECT SUM(cents) FROM orders_native")
	if err != nil {
		t.Fatal(err)
	}
	sumM, err := f.Engine.Query(ctx, "SELECT SUM(amount) FROM orders_mediated")
	if err != nil {
		t.Fatal(err)
	}
	ratio := sums.Rows[0][0].Float() / sumM.Rows[0][0].Float()
	if ratio < 99.99 || ratio > 100.01 {
		t.Errorf("unit conversion ratio = %v, want 100", ratio)
	}
	// Constant column materializes.
	site, err := f.Engine.Query(ctx, "SELECT DISTINCT site FROM orders_mediated")
	if err != nil || len(site.Rows) != 1 || site.Rows[0][0].Str() != "legacy-dc" {
		t.Errorf("site = %v, %v", site, err)
	}
}

func TestCapabilityWrappersAgree(t *testing.T) {
	f, err := Capability(context.Background(), 300)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q := "SELECT COUNT(*), SUM(amount) FROM %s WHERE region = 'north' AND amount > 100"
	var want string
	for _, tbl := range []string{"orders_rel", "orders_kv", "orders_doc", "orders_file"} {
		res, err := f.Engine.Query(ctx, replaceTable(q, tbl))
		if err != nil {
			t.Fatalf("%s: %v", tbl, err)
		}
		got := res.Rows[0].String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s disagrees: %s vs %s", tbl, got, want)
		}
	}
}

func replaceTable(q, tbl string) string {
	out := ""
	for i := 0; i < len(q); i++ {
		if q[i] == '%' && i+1 < len(q) && q[i+1] == 's' {
			out += tbl
			i++
			continue
		}
		out += string(q[i])
	}
	return out
}

func TestTxnStoresFixture(t *testing.T) {
	f, err := TxnStores(context.Background(), 4, 10, false, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A global update across all 4 participants commits atomically.
	n, err := f.Engine.Exec(ctx, "UPDATE accounts SET balance = balance - 1")
	if err != nil || n != 40 {
		t.Fatalf("update = %d, %v", n, err)
	}
	if len(f.Engine.Coordinator().Log().Decisions()) != 1 {
		t.Error("expected one 2PC decision")
	}
	res, err := f.Engine.Query(ctx, "SELECT SUM(balance) FROM accounts")
	if err != nil || res.Rows[0][0].Float() != 4*10*999 {
		t.Fatalf("sum = %v, %v", res, err)
	}
}

// The repository benchmark's update_2pc workload at its test scale —
// four served relstores, its five statements in rounds — takes no view
// of a table, so no write ever copies a chunk for a reader: the writes
// scan under the write lock, sum_check folds under the read lock, and a
// DELETE or UPDATE by key that the mediator turns into a read first is
// an index probe. A full scan put between the rounds is what a copy
// takes, and the counter shows it.
func TestUpdateWorkloadCopiesNoChunk(t *testing.T) {
	const parts, rowsPer = 4, 100
	f, err := TxnStores(ctx, parts, rowsPer, true, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	copies := func() (n int64) {
		for _, st := range f.Stores {
			n += st.ViewCopies()
		}
		return n
	}
	num := func(i int) types.Value { return types.NewInt(int64(i)) }
	round := func(i int) {
		t.Helper()
		id, span := i%(parts*rowsPer), rowsPer/2
		lo := (i * 37) % (parts*rowsPer - 2*span)
		for _, st := range []struct {
			sql    string
			params []types.Value
			rows   int64
		}{
			{"DELETE FROM accounts WHERE id = ?", []types.Value{num(id)}, 1},
			{"INSERT INTO accounts (id, balance) VALUES (?, ?)", []types.Value{num(id), types.NewFloat(5)}, 1},
			{"UPDATE accounts SET balance = balance + ? WHERE id = ?", []types.Value{types.NewFloat(1), num(id)}, 1},
			{"UPDATE accounts SET balance = CASE WHEN id < ? THEN balance - ? ELSE balance + ? END WHERE id >= ? AND id < ?",
				[]types.Value{num(lo + span), types.NewFloat(2), types.NewFloat(2), num(lo), num(lo + 2*span)}, int64(2 * span)},
		} {
			if n, err := f.Engine.Exec(ctx, st.sql, st.params...); err != nil || n != st.rows {
				t.Fatalf("round %d, %s: %d rows, %v; want %d", i, st.sql, n, err, st.rows)
			}
		}
		res, err := f.Engine.Query(ctx, "SELECT SUM(balance), COUNT(*) FROM accounts")
		if err != nil || res.Rows[0][1].Int() != parts*rowsPer {
			t.Fatalf("round %d, sum_check: %v, %v", i, res, err)
		}
	}
	for i := 0; i < 40; i++ {
		round(i)
	}
	if n := copies(); n != 0 {
		t.Errorf("%d chunks copied for a scan over 40 rounds of update_2pc's statements: something took a view", n)
	}
	if res, err := f.Engine.Query(ctx, "SELECT id, balance FROM accounts"); err != nil || len(res.Rows) != parts*rowsPer {
		t.Fatalf("full scan: %v, %v", res, err)
	}
	round(40)
	if n := copies(); n == 0 {
		t.Error("no chunk copied by the writes that followed a full scan of every participant: the counter counts nothing")
	}
}

func TestGenDeterminism(t *testing.T) {
	a := GenOrders(100, 10, 42)
	b := GenOrders(100, 10, 42)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("GenOrders is not deterministic")
		}
	}
	c := GenOrders(100, 10, 43)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

// TestKeyInListPushedToKeyedSource: a FilterKey source takes an IN list
// on its key — the predicate a semijoin ships it anyway — instead of
// handing the mediator the whole bucket to filter; and the answer is the
// full-SQL wrapper's whatever the list repeats, retypes or leaves NULL.
func TestKeyInListPushedToKeyedSource(t *testing.T) {
	f, err := Capability(context.Background(), 300)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := f.Engine.Explain(ctx, "SELECT oid, amount FROM orders_kv WHERE oid IN (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	if want := "FragScan cap_kv.orders [scan orders where (oid IN (1, 2, 3))]\n"; !strings.Contains(plan, want) {
		t.Errorf("plan:\n%swant a line %q", plan, want)
	}
	for _, list := range []string{"1, 1, 2.0", "7, NULL, 7.0, 299, 300", "NULL", "4.5, 4"} {
		q := "SELECT oid, amount FROM %s WHERE oid IN (" + list + ")"
		want, err := eqRun(f, replaceTable(q, "orders_rel"), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eqRun(f, replaceTable(q, "orders_kv"), false)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffRows(got, want); d != "" {
			t.Errorf("oid IN (%s): orders_kv against orders_rel: %s", list, d)
		}
	}
}
