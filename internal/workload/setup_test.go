package workload

import (
	"fmt"
	"testing"

	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/relstore"
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
