package workload

import (
	"fmt"
	"testing"

	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

// TestSetUpFrames builds a federation the way the benchmark's wan_fanout
// does — customers on one source, events range-partitioned over eight
// more, every source dialed — and counts what its set-up sends: a dial
// is the hello and its reply, and ANALYZE is one msgStats and its answer
// per remote table. Mapping a fragment sends nothing, because the
// dial's hello reply described the table.
func TestSetUpFrames(t *testing.T) {
	const parts, rowsPer = 8, 50
	names := []string{"setup_c"}
	for p := 0; p < parts; p++ {
		names = append(names, fmt.Sprintf("setup_e%d", p))
	}
	counter := func(name, dir string) *obs.Counter {
		return obs.Default().Counter("wire.client." + name + ".frames_" + dir)
	}
	before := map[string]int64{}
	for _, n := range names {
		before[n+" out"], before[n+" in"] = counter(n, "out").Value(), counter(n, "in").Value()
	}

	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	defer f.Close()
	cat := f.Engine.Catalog()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cs := relstore.New(names[0])
	must(cs.CreateTable("customers", customersSchema(), 0))
	_, err := cs.Insert(ctx, "customers", GenCustomers(20, 1))
	must(err)
	_, err = f.attach(ctx, cs, true, Link{})
	must(err)
	must(cat.DefineTable("customers", customersSchema()))
	must(cat.MapSimple(ctx, "customers", names[0], "customers"))
	must(cat.DefineTable("events", ordersSchema()))
	for p, name := range names[1:] {
		st := relstore.New(name)
		must(st.CreateTable("events", ordersSchema(), 0))
		rows := GenOrders(rowsPer, 20, int64(p))
		lo := int64(p * rowsPer)
		for i := range rows {
			rows[i][0] = types.NewInt(lo + int64(i))
		}
		_, err := st.Insert(ctx, "events", rows)
		must(err)
		must(st.CreateIndex("events", 1))
		_, err = f.attach(ctx, st, true, Link{})
		must(err)
		where := expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(lo))),
			expr.NewBinary(expr.OpLt, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(lo+rowsPer))))
		must(cat.MapFragment(ctx, "events", &catalog.Fragment{Source: name, RemoteTable: "events",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}}, Where: where}))
	}
	must(f.Engine.Analyze(ctx))

	var total int64
	for _, n := range names {
		out, in := counter(n, "out").Value()-before[n+" out"], counter(n, "in").Value()-before[n+" in"]
		if out != 2 || in != 2 {
			t.Errorf("%s: set-up sent %d frames and received %d, want 2 and 2: the hello and msgStats, each answered", n, out, in)
		}
		total += out + in
	}
	if want := int64(len(names) * 4); total != want {
		t.Errorf("set-up of %d sources moved %d frames, want %d", len(names), total, want)
	}

	res, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM events e JOIN customers c ON e.cust_id = c.id")
	if err != nil || res.Rows[0][0].Int() != parts*rowsPer {
		t.Fatalf("the federation set up in %d frames answers %v, %v; want %d joined rows", total, res, err, parts*rowsPer)
	}
}

// TestGlobalUpdateFrames counts what a global UPDATE over two dialed
// participants sends: for each, its write — which opens the participant's
// transaction — prepare and commit, each answered. Twelve frames in all;
// a begin of its own was four more.
func TestGlobalUpdateFrames(t *testing.T) {
	f, err := TxnStores(ctx, 2, 10, true, Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames := func() (n int64) {
		for name := range f.Stores {
			for _, dir := range []string{"out", "in"} {
				n += obs.Default().Counter("wire.client." + name + ".frames_" + dir).Value()
			}
		}
		return n
	}
	before := frames()
	if n, err := f.Engine.Exec(ctx, "UPDATE accounts SET balance = balance - 1 WHERE id >= 5 AND id < 15"); err != nil || n != 10 {
		t.Fatalf("update = %d, %v; want 10 rows", n, err)
	}
	if got := frames() - before; got != 12 {
		t.Errorf("a two-participant UPDATE moved %d client frames, want 12: write, prepare and commit, each answered, at each", got)
	}
}

// TestSubQueryFrames counts what a sub-query over a dialed source sends
// and receives: one msgExecute, answered by a msgRows frame per full
// batch of 256 rows and one msgEnd carrying the rest. So a sub-query
// whose answer fits one frame costs one round trip of two frames.
func TestSubQueryFrames(t *testing.T) {
	const name = "subquery_frames"
	st := relstore.New(name)
	if err := st.CreateTable("events", ordersSchema(), 0); err != nil {
		t.Fatal(err)
	}
	rows := GenOrders(600, 20, 1)
	for i := range rows {
		rows[i][0] = types.NewInt(int64(i))
	}
	if _, err := st.Insert(ctx, "events", rows); err != nil {
		t.Fatal(err)
	}
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	defer f.Close()
	src, err := f.attach(ctx, st, true, Link{})
	if err != nil {
		t.Fatal(err)
	}
	in := obs.Default().Counter("wire.client." + name + ".frames_in")
	out := obs.Default().Counter("wire.client." + name + ".frames_out")
	for _, c := range []struct{ rows, in int64 }{{0, 1}, {10, 1}, {256, 2}, {600, 3}} {
		q := source.NewScan("events")
		q.Filter = expr.NewBinary(expr.OpLt, expr.NewBoundColRef(0, types.KindInt, "oid"), expr.NewConst(types.NewInt(c.rows)))
		i, o := in.Value(), out.Value()
		it, err := src.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := source.Drain(it)
		if err != nil || int64(len(got)) != c.rows {
			t.Fatalf("a sub-query of %d rows returned %d, %v", c.rows, len(got), err)
		}
		if gin, gout := in.Value()-i, out.Value()-o; gin != c.in || gout != 1 {
			t.Errorf("a sub-query of %d rows received %d frames and sent %d, want %d and 1", c.rows, gin, gout, c.in)
		}
	}

	// A SUM through an affine mapping is folded by the source: the
	// answer to the statement over all 600 rows is one msgEnd, where
	// shipping the rows took three frames.
	cents := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount_cents", Type: types.KindFloat},
	)
	cat := f.Engine.Catalog()
	if err := cat.DefineTable("events_cents", cents); err != nil {
		t.Fatal(err)
	}
	if err := cat.MapFragment(ctx, "events_cents", &catalog.Fragment{Source: name, RemoteTable: "events",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100}}}); err != nil {
		t.Fatal(err)
	}
	i, o := in.Value(), out.Value()
	res, err := f.Engine.Query(ctx, "SELECT COUNT(*), SUM(amount_cents) FROM events_cents")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 600 {
		t.Fatalf("scaled SUM: %v, %v", res, err)
	}
	if gin, gout := in.Value()-i, out.Value()-o; gin != 1 || gout != 1 {
		t.Errorf("a scaled SUM over 600 rows received %d frames and sent %d, want 1 and 1", gin, gout)
	}
}
