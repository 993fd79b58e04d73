package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/docstore"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
	"gis/internal/wire"
)

// fixture is one workload's federation, loaded and analyzed, with the
// generator of the statements to run against it.
type fixture struct {
	eng     *core.Engine
	admit   *admission.Controller
	gen     generator
	remotes []string // names of the sources reached over the wire
	closers []func() error
}

// close shuts the wire clients down, then the servers.
func (f *fixture) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		_ = f.closers[i]() // teardown of loopback sockets; nothing to do about a failure
	}
}

// sizes scales a workload's row and statement counts; 1 is the measured
// configuration, the package tests run at 0.01.
type sizes float64

func (z sizes) n(full int) int { return max(4, int(float64(full)*float64(z))) }

var (
	ordersSchema = types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	customersSchema = types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString},
	)
	accountsSchema = types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
)

// wanLink is wan_fanout's simulated link, each way. Its latency is well
// above the few milliseconds for which the sandbox's hypervisor withholds
// the CPU at a time: a hop that is late by one such burst is late by a
// fraction of itself, not by a multiple.
var wanLink = wire.SimLink{Latency: 5 * time.Millisecond, BytesPerSec: 50 << 20}

// newFixture starts a federation with a non-binding admission
// controller, so that layer is on every statement's path without ever
// queueing or shedding the single client.
func newFixture() *fixture {
	f := &fixture{eng: core.New(), admit: admission.New(admission.Config{MaxInFlight: 64})}
	f.eng.SetAdmission(f.admit)
	return f
}

// attach registers a store with the catalog, in-process or behind a
// wire server on a loopback port. With a recorder the source is
// decorated mediator-side and, when there is a wire between the two,
// component-side as well; a local store is its own component, and a
// second decorator around it would only time the first.
func (f *fixture) attach(ctx context.Context, rec *recorder, st source.Source, kind string, remote bool, link wire.SimLink) error {
	if rec != nil && remote {
		st = rec.wrap(st, componentSide, kind, remote)
	}
	src := st
	if remote {
		srv, err := wire.Serve(ctx, "127.0.0.1:0", st)
		if err != nil {
			return err
		}
		f.closers = append(f.closers, srv.Close)
		cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithSimLink(link), wire.WithName(st.Name()))
		if err != nil {
			return err
		}
		f.closers = append(f.closers, cl.Close)
		f.remotes = append(f.remotes, st.Name())
		src = cl
	}
	if rec != nil {
		src = rec.wrap(src, mediatorSide, kind, remote)
	}
	return f.eng.Catalog().AddSource(src)
}

// relTable creates and loads one relstore table keyed on column 0.
func relTable(ctx context.Context, st *relstore.Store, name string, schema *types.Schema, rows []types.Row) error {
	if err := st.CreateTable(name, schema, 0); err != nil {
		return err
	}
	_, err := st.Insert(ctx, name, rows)
	return err
}

// mapIdentity defines a global table as one remote table, column for
// column.
func (f *fixture) mapIdentity(ctx context.Context, table string, schema *types.Schema, src, remote string) error {
	cat := f.eng.Catalog()
	if err := cat.DefineTable(table, schema); err != nil {
		return err
	}
	return cat.MapSimple(ctx, table, src, remote)
}

// rangeFragment maps one participant's share [lo,hi) of a table
// range-partitioned on its first column.
func (f *fixture) rangeFragment(ctx context.Context, table, keyCol, src, remote string, width int, lo, hi int64) error {
	where, err := sql.ParseExpr(fmt.Sprintf("%s >= %d AND %s < %d", keyCol, lo, keyCol, hi))
	if err != nil {
		return err
	}
	cols := make([]catalog.ColumnMapping, width)
	for i := range cols {
		cols[i] = catalog.ColumnMapping{RemoteCol: i}
	}
	return f.eng.Catalog().MapFragment(ctx, table, &catalog.Fragment{Source: src, RemoteTable: remote, Columns: cols, Where: where})
}

// buildTwoTable is the federation point_remote and ship_remote share:
// customers on src_c, orders on src_o (primary key oid, index on
// cust_id), both behind a zero-latency wire. orders_cents is a second
// global view of the same remote rows with amount scaled to cents; the
// affine mapping keeps SUM from being pushed down, so its rows ship.
func buildTwoTable(ctx context.Context, rec *recorder, d *twoTableData) (*fixture, error) {
	f := newFixture()
	cs := relstore.New("src_c")
	if err := relTable(ctx, cs, "customers", customersSchema, customerRows(d.customers)); err != nil {
		return f, err
	}
	os := relstore.New("src_o")
	if err := relTable(ctx, os, "orders", ordersSchema, orderRows(d.orders)); err != nil {
		return f, err
	}
	if err := os.CreateIndex("orders", 1); err != nil {
		return f, err
	}
	for _, st := range []*relstore.Store{cs, os} {
		if err := f.attach(ctx, rec, st, "relstore", true, wire.SimLink{}); err != nil {
			return f, err
		}
	}
	if err := f.mapIdentity(ctx, "customers", customersSchema, "src_c", "customers"); err != nil {
		return f, err
	}
	if err := f.mapIdentity(ctx, "orders", ordersSchema, "src_o", "orders"); err != nil {
		return f, err
	}
	cents := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount_cents", Type: types.KindFloat},
	)
	cat := f.eng.Catalog()
	if err := cat.DefineTable("orders_cents", cents); err != nil {
		return f, err
	}
	if err := cat.MapFragment(ctx, "orders_cents", &catalog.Fragment{Source: "src_o", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100}}}); err != nil {
		return f, err
	}
	return f, f.eng.Analyze(ctx)
}

// buildHetero holds one orders table four ways — relstore, kvstore
// keyed on oid, docstore with cust_id nested at cust.id, filestore as
// CSV — beside a customers relstore, all in-process. orders_mediated is
// a second view of the relstore rows through a value map, an affine
// conversion and a constant column.
func buildHetero(ctx context.Context, rec *recorder, d *twoTableData) (*fixture, error) {
	f := newFixture()
	rows := orderRows(d.orders)

	rs := relstore.New("h_rel")
	if err := relTable(ctx, rs, "orders", ordersSchema, rows); err != nil {
		return f, err
	}
	if err := relTable(ctx, rs, "customers", customersSchema, customerRows(d.customers)); err != nil {
		return f, err
	}

	kv := kvstore.New("h_kv")
	if err := kv.CreateBucket("orders", ordersSchema, 0); err != nil {
		return f, err
	}
	if _, err := kv.Insert(ctx, "orders", rows); err != nil {
		return f, err
	}

	ds := docstore.New("h_doc")
	if err := loadDocs(ds, d.orders); err != nil {
		return f, err
	}

	fs := filestore.New("h_file")
	if err := fs.RegisterData("orders", ordersCSV(d.orders), ordersSchema); err != nil {
		return f, err
	}

	for _, s := range []struct {
		st   source.Source
		kind string
	}{{rs, "relstore"}, {kv, "kvstore"}, {ds, "docstore"}, {fs, "filestore"}} {
		if err := f.attach(ctx, rec, s.st, s.kind, false, wire.SimLink{}); err != nil {
			return f, err
		}
	}
	if err := f.mapIdentity(ctx, "customers", customersSchema, "h_rel", "customers"); err != nil {
		return f, err
	}
	for _, s := range []string{"rel", "kv", "doc", "file"} {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		if err := f.mapIdentity(ctx, "orders_"+s, ordersSchema, "h_"+s, "orders"); err != nil {
			return f, err
		}
	}
	mediated := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount_cents", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "site", Type: types.KindString},
	)
	cat := f.eng.Catalog()
	if err := cat.DefineTable("orders_mediated", mediated); err != nil {
		return f, err
	}
	site := types.NewString(mediatedSite)
	if err := cat.MapFragment(ctx, "orders_mediated", &catalog.Fragment{Source: "h_rel", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2, Scale: 100},
			{RemoteCol: 3, ValueMap: regionCode}, {RemoteCol: -1, Const: &site}}}); err != nil {
		return f, err
	}
	return f, f.eng.Analyze(ctx)
}

// loadDocs creates the orders collection (cust_id nested at cust.id)
// and fills it.
func loadDocs(ds *docstore.Store, orders []order) error {
	if err := ds.CreateCollection("orders", []docstore.FieldMap{
		{Column: ordersSchema.Columns[0], Path: "oid"},
		{Column: ordersSchema.Columns[1], Path: "cust.id"},
		{Column: ordersSchema.Columns[2], Path: "amount"},
		{Column: ordersSchema.Columns[3], Path: "region"},
	}); err != nil {
		return err
	}
	for _, o := range orders {
		doc := map[string]any{"oid": float64(o.oid), "cust": map[string]any{"id": float64(o.cust)}, "amount": o.amount, "region": o.region}
		if err := ds.InsertDoc("orders", doc); err != nil {
			return err
		}
	}
	return nil
}

// ordersCSV renders orders as the headerless CSV the filestore reads.
func ordersCSV(orders []order) string {
	var b strings.Builder
	for _, o := range orders {
		fmt.Fprintf(&b, "%d,%d,%v,%s\n", o.oid, o.cust, o.amount, o.region)
	}
	return b.String()
}

// fanoutParts is how many remote relstores wan_fanout spreads events over.
const fanoutParts = 8

// buildFanout range-partitions events on oid over fanoutParts remote
// relstores (indexed on cust_id, for shipped join keys) and puts
// customers on one more, every link simulated at link.
func buildFanout(ctx context.Context, rec *recorder, d *twoTableData, link wire.SimLink) (*fixture, error) {
	f := newFixture()
	cs := relstore.New("wan_c")
	if err := relTable(ctx, cs, "customers", customersSchema, customerRows(d.customers)); err != nil {
		return f, err
	}
	if err := f.attach(ctx, rec, cs, "relstore", true, link); err != nil {
		return f, err
	}
	if err := f.mapIdentity(ctx, "customers", customersSchema, "wan_c", "customers"); err != nil {
		return f, err
	}
	if err := f.eng.Catalog().DefineTable("events", ordersSchema); err != nil {
		return f, err
	}
	per := (len(d.orders) + fanoutParts - 1) / fanoutParts
	for p := 0; p < fanoutParts; p++ {
		lo, hi := p*per, min((p+1)*per, len(d.orders))
		name := fmt.Sprintf("wan_e%d", p)
		st := relstore.New(name)
		if err := relTable(ctx, st, "events", ordersSchema, orderRows(d.orders[lo:hi])); err != nil {
			return f, err
		}
		if err := st.CreateIndex("events", 1); err != nil {
			return f, err
		}
		if err := f.attach(ctx, rec, st, "relstore", true, link); err != nil {
			return f, err
		}
		if err := f.rangeFragment(ctx, "events", "oid", name, "events", ordersSchema.Len(), int64(lo), int64(hi)); err != nil {
			return f, err
		}
	}
	return f, f.eng.Analyze(ctx)
}

// updateParts is how many transactional relstores hold update_2pc's
// accounts.
const updateParts = 4

// buildUpdate range-partitions accounts on id over updateParts remote
// relstores behind a zero-latency wire.
func buildUpdate(ctx context.Context, rec *recorder, accounts [][]account) (*fixture, error) {
	f := newFixture()
	if err := f.eng.Catalog().DefineTable("accounts", accountsSchema); err != nil {
		return f, err
	}
	for p, part := range accounts {
		name := fmt.Sprintf("bank%d", p)
		st := relstore.New(name)
		rows := make([]types.Row, len(part))
		for i, a := range part {
			rows[i] = types.Row{types.NewInt(a.id), types.NewFloat(a.balance)}
		}
		if err := relTable(ctx, st, "acct", accountsSchema, rows); err != nil {
			return f, err
		}
		if err := f.attach(ctx, rec, st, "relstore", true, wire.SimLink{}); err != nil {
			return f, err
		}
		if err := f.rangeFragment(ctx, "accounts", "id", name, "acct", accountsSchema.Len(),
			int64(p)*partSpan, int64(p+1)*partSpan); err != nil {
			return f, err
		}
	}
	return f, f.eng.Analyze(ctx)
}

// workload is one of the benchmark's five input sets.
type workload struct {
	name string
	why  string
	// perSecond is how many statements the seed commit completes per
	// second on the two-core machine the counts were sized on; a run of
	// -seconds s executes segments×round(perSecond×s/segments)
	// statements whatever the code under test then does with them.
	perSecond float64
	templates []template
	// build generates the inputs from the seed, loads the federation
	// and returns it with its statement generator.
	build func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error)
}

var workloads = []workload{
	{
		name:      "point_remote",
		why:       "ten rows or fewer move per statement, so parse, plan, catalog, admission, obs bookkeeping and one or two wire round trips are the whole cost; the data path is idle",
		perSecond: 2700, templates: pointTemplates,
		build: func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
			d := genTwoTable(seed, z.n(2000), z.n(100000))
			f, err := buildTwoTable(ctx, rec, d)
			f.gen = &pointGen{d: d, rng: rand.New(rand.NewSource(seed + 1))}
			return f, err
		},
	},
	{
		name:      "ship_remote",
		why:       "thousands of rows cross the wire and the mediator per statement: codec, framing, credits, iterators, per-row operator work and Value copies dominate, parse and plan are under 2%",
		perSecond: 100, templates: shipTemplates,
		build: func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
			d := genTwoTable(seed, z.n(2000), z.n(10000))
			f, err := buildTwoTable(ctx, rec, d)
			f.gen = &shipGen{d: d, rng: rand.New(rand.NewSource(seed + 1)), span: z.n(4000)}
			return f, err
		},
	},
	{
		name:      "hetero_local",
		why:       "no wire at all: time is in the four store kinds' scan paths, catalog translation and the mediator's compensating filter, join, aggregate and sort: the paper's heterogeneity cost",
		perSecond: 55, templates: heteroTemplates,
		build: func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
			d := genTwoTable(seed, z.n(1000), z.n(20000))
			f, err := buildHetero(ctx, rec, d)
			f.gen = newHeteroGen(d, rand.New(rand.NewSource(seed+1)))
			return f, err
		},
	},
	{
		name:      "wan_fanout",
		why:       "the only workload with link latency: wall time is round-trip depth times 5 ms plus transfer, so it moves with frames, fragment overlap and strategy choice, not with codec or operator CPU",
		perSecond: 25, templates: fanoutTemplates,
		build: func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
			d := genTwoTable(seed, z.n(2000), z.n(40000))
			// The 1/100 configuration of the tests shortens the hops too.
			link := wanLink
			link.Latency = time.Duration(float64(link.Latency) * min(1, float64(z)))
			f, err := buildFanout(ctx, rec, d, link)
			rng := rand.New(rand.NewSource(seed + 1))
			f.gen = &fanoutGen{d: d, rng: rng, even: newEvenDraw(rng), span: z.n(1000), custs: 4}
			return f, err
		},
	},
	{
		name:      "update_2pc",
		why:       "writes beside reads: the txn coordinator, relstore tx, undo and index upkeep, and 2PC message rounds; a read-side optimisation that adds write-side upkeep shows here",
		perSecond: 2250, templates: updateTemplates,
		build: func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
			perPart := z.n(500)
			f, err := buildUpdate(ctx, rec, genAccounts(seed, updateParts, perPart))
			f.gen = newUpdateGen(seed, updateParts, perPart)
			return f, err
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
