// Package workload builds the synthetic federations the evaluation
// harness measures: partitioned tables over local or wire-attached
// sources with simulated WAN links, heterogeneous (value-mapped /
// unit-converted) schemas, capability-restricted wrappers, and
// multi-participant transactional stores. Generation is deterministic
// per seed.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
	"gis/internal/wire"
)

// Fixture is a ready federation plus the resources behind it.
type Fixture struct {
	Engine *core.Engine
	// Stores gives direct access to the backing relstores by name.
	Stores map[string]*relstore.Store

	closers []func() error
}

// Close shuts down any wire servers and clients the fixture started.
func (f *Fixture) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		_ = f.closers[i]()
	}
}

// Link describes the simulated WAN link for remote fixtures.
type Link = wire.SimLink

// attach registers a store with the engine either in-process or through
// a TCP wire server with the simulated link.
func (f *Fixture) attach(ctx context.Context, st source.Source, remote bool, link Link) (source.Source, error) {
	if !remote {
		if err := f.Engine.Catalog().AddSource(st); err != nil {
			return nil, err
		}
		return st, nil
	}
	srv, err := wire.Serve(ctx, "127.0.0.1:0", st)
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, srv.Close)
	cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithSimLink(link), wire.WithName(st.Name()))
	if err != nil {
		return nil, err
	}
	f.closers = append(f.closers, cl.Close)
	if err := f.Engine.Catalog().AddSource(cl); err != nil {
		return nil, err
	}
	return cl, nil
}

// ordersSchema is the common demo schema.
func ordersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
}

func customersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "segment", Type: types.KindString},
	)
}

var regions = []string{"north", "south", "east", "west"}

// GenOrders produces n deterministic order rows with cust_id drawn from
// [0, custNDV).
func GenOrders(n, custNDV int, seed int64) []types.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(custNDV))),
			types.NewFloat(float64(rng.Intn(100000)) / 100),
			types.NewString(regions[rng.Intn(len(regions))]),
		}
	}
	return rows
}

// GenCustomers produces n deterministic customer rows.
func GenCustomers(n int, seed int64) []types.Row {
	rng := rand.New(rand.NewSource(seed))
	segments := []string{"retail", "wholesale", "online"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("cust-%06d", i)),
			types.NewString(segments[rng.Intn(len(segments))]),
		}
	}
	return rows
}

// TwoTable builds the selection/join benchmark federation:
//
//	customers (nCust rows) on source "src_c"
//	orders    (nOrd rows, cust_id ∈ [0,nCust)) on source "src_o"
//
// remote serves both stores over TCP with the given link.
func TwoTable(ctx context.Context, nCust, nOrd int, remote bool, link Link) (*Fixture, error) {
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}

	cStore := relstore.New("src_c")
	if err := cStore.CreateTable("customers", customersSchema(), 0); err != nil {
		return nil, err
	}
	if _, err := cStore.Insert(ctx, "customers", GenCustomers(nCust, 1)); err != nil {
		return nil, err
	}
	oStore := relstore.New("src_o")
	if err := oStore.CreateTable("orders", ordersSchema(), 0); err != nil {
		return nil, err
	}
	if _, err := oStore.Insert(ctx, "orders", GenOrders(nOrd, max(nCust, 1), 2)); err != nil {
		return nil, err
	}
	f.Stores["src_c"] = cStore
	f.Stores["src_o"] = oStore

	if _, err := f.attach(ctx, cStore, remote, link); err != nil {
		return nil, err
	}
	if _, err := f.attach(ctx, oStore, remote, link); err != nil {
		return nil, err
	}
	cat := f.Engine.Catalog()
	if err := cat.DefineTable("customers", customersSchema()); err != nil {
		return nil, err
	}
	if err := cat.MapSimple(ctx, "customers", "src_c", "customers"); err != nil {
		return nil, err
	}
	if err := cat.DefineTable("orders", ordersSchema()); err != nil {
		return nil, err
	}
	if err := cat.MapSimple(ctx, "orders", "src_o", "orders"); err != nil {
		return nil, err
	}
	if err := f.Engine.Analyze(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// Partitioned builds a table horizontally split over k sources with
// rowsPer rows each (T4 fan-out).
func Partitioned(ctx context.Context, k, rowsPer int, remote bool, link Link) (*Fixture, error) {
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	cat := f.Engine.Catalog()
	if err := cat.DefineTable("events", ordersSchema()); err != nil {
		return nil, err
	}
	for p := 0; p < k; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("part%02d", p)
		st := relstore.New(name)
		if err := st.CreateTable("events", ordersSchema(), 0); err != nil {
			return nil, err
		}
		rows := GenOrders(rowsPer, 1000, int64(100+p))
		// Re-key oids into this partition's range.
		lo := int64(p * rowsPer)
		for i := range rows {
			rows[i][0] = types.NewInt(lo + int64(i))
		}
		if _, err := st.Insert(ctx, "events", rows); err != nil {
			return nil, err
		}
		f.Stores[name] = st
		if _, err := f.attach(ctx, st, remote, link); err != nil {
			return nil, err
		}
		hiBound := lo + int64(rowsPer)
		part := expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(lo))),
			expr.NewBinary(expr.OpLt, expr.NewColRef("", "oid"), expr.NewConst(types.NewInt(hiBound))))
		if err := cat.MapFragment(ctx, "events", &catalog.Fragment{
			Source: name, RemoteTable: "events",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}},
			Where:   part,
		}); err != nil {
			return nil, err
		}
	}
	if err := f.Engine.Analyze(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// Heterogeneous builds two views of the same physical order data: table
// "orders_native" maps identity, "orders_mediated" goes through a value
// map on region, an affine conversion on amount (cents → currency), and
// a constant site column (F5 mediation overhead).
func Heterogeneous(ctx context.Context, nOrd int, remote bool, link Link) (*Fixture, error) {
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	st := relstore.New("legacy")
	// The legacy store keeps region codes and integer cents.
	legacySchema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "cents", Type: types.KindFloat},
		types.Column{Name: "rg", Type: types.KindString},
	)
	if err := st.CreateTable("orders", legacySchema, 0); err != nil {
		return nil, err
	}
	rows := GenOrders(nOrd, 1000, 7)
	codes := map[string]string{"north": "N", "south": "S", "east": "E", "west": "W"}
	for i := range rows {
		rows[i][2] = types.NewFloat(rows[i][2].Float() * 100) // cents
		rows[i][3] = types.NewString(codes[rows[i][3].Str()])
	}
	if _, err := st.Insert(ctx, "orders", rows); err != nil {
		return nil, err
	}
	f.Stores["legacy"] = st
	if _, err := f.attach(ctx, st, remote, link); err != nil {
		return nil, err
	}
	cat := f.Engine.Catalog()
	// Native view: identity over the legacy representation.
	if err := cat.DefineTable("orders_native", legacySchema); err != nil {
		return nil, err
	}
	if err := cat.MapSimple(ctx, "orders_native", "legacy", "orders"); err != nil {
		return nil, err
	}
	// Mediated view: currency units, spelled-out regions, site tag.
	site := types.NewString("legacy-dc")
	mediated := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
		types.Column{Name: "site", Type: types.KindString},
	)
	if err := cat.DefineTable("orders_mediated", mediated); err != nil {
		return nil, err
	}
	if err := cat.MapFragment(ctx, "orders_mediated", &catalog.Fragment{
		Source: "legacy", RemoteTable: "orders",
		Columns: []catalog.ColumnMapping{
			{RemoteCol: 0},
			{RemoteCol: 1},
			{RemoteCol: 2, Scale: 0.01},
			{RemoteCol: 3, ValueMap: map[string]string{"N": "north", "S": "south", "E": "east", "W": "west"}},
			{RemoteCol: -1, Const: &site},
		},
	}); err != nil {
		return nil, err
	}
	if err := f.Engine.Analyze(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// Capability builds the same logical order table behind four wrappers of
// descending capability (T8): full SQL (relstore), keyed (kvstore),
// documents (docstore), flat file (filestore). Tables are named
// orders_rel / orders_kv / orders_doc / orders_file.
func Capability(ctx context.Context, nOrd int) (*Fixture, error) {
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	cat := f.Engine.Catalog()
	rows := GenOrders(nOrd, 1000, 11)
	schema := ordersSchema()

	rs := relstore.New("cap_rel")
	if err := rs.CreateTable("orders", schema, 0); err != nil {
		return nil, err
	}
	if _, err := rs.Insert(ctx, "orders", rows); err != nil {
		return nil, err
	}
	f.Stores["cap_rel"] = rs

	kv := kvstore.New("cap_kv")
	if err := kv.CreateBucket("orders", schema, 0); err != nil {
		return nil, err
	}
	if _, err := kv.Insert(ctx, "orders", rows); err != nil {
		return nil, err
	}

	ds := docstore.New("cap_doc")
	if err := ds.CreateCollection("orders", []docstore.FieldMap{
		{Column: schema.Columns[0], Path: "oid"},
		{Column: schema.Columns[1], Path: "cust.id"},
		{Column: schema.Columns[2], Path: "amount"},
		{Column: schema.Columns[3], Path: "region"},
	}); err != nil {
		return nil, err
	}
	for _, r := range rows {
		doc := map[string]any{
			"oid":    float64(r[0].Int()),
			"cust":   map[string]any{"id": float64(r[1].Int())},
			"amount": r[2].Float(),
			"region": r[3].Str(),
		}
		if err := ds.InsertDoc("orders", doc); err != nil {
			return nil, err
		}
	}

	fs := filestore.New("cap_file")
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%d,%v,%s\n", r[0].Int(), r[1].Int(), r[2].Float(), r[3].Str())
	}
	if err := fs.RegisterData("orders", b.String(), schema); err != nil {
		return nil, err
	}

	for _, src := range []source.Source{rs, kv, ds, fs} {
		if err := cat.AddSource(src); err != nil {
			return nil, err
		}
	}
	for name, src := range map[string]string{
		"orders_rel": "cap_rel", "orders_kv": "cap_kv",
		"orders_doc": "cap_doc", "orders_file": "cap_file",
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := cat.DefineTable(name, schema); err != nil {
			return nil, err
		}
		if err := cat.MapSimple(ctx, name, src, "orders"); err != nil {
			return nil, err
		}
	}
	if err := f.Engine.Analyze(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// TxnStores builds n transactional relstores each holding an "acct"
// table mapped into a partitioned global table (participant i owns ids
// [i*rows, (i+1)*rows)). Used by the atomic-commitment experiment (T6).
func TxnStores(ctx context.Context, n, rowsPer int, remote bool, link Link) (*Fixture, error) {
	f := &Fixture{Engine: core.New(), Stores: map[string]*relstore.Store{}}
	cat := f.Engine.Catalog()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	if err := cat.DefineTable("accounts", schema); err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("bank%02d", p)
		st := relstore.New(name)
		if err := st.CreateTable("acct", schema, 0); err != nil {
			return nil, err
		}
		rows := make([]types.Row, rowsPer)
		for i := range rows {
			rows[i] = types.Row{
				types.NewInt(int64(p*rowsPer + i)),
				types.NewFloat(1000),
			}
		}
		if _, err := st.Insert(ctx, "acct", rows); err != nil {
			return nil, err
		}
		f.Stores[name] = st
		if _, err := f.attach(ctx, st, remote, link); err != nil {
			return nil, err
		}
		lo, hi := int64(p*rowsPer), int64((p+1)*rowsPer)
		if err := cat.MapFragment(ctx, "accounts", &catalog.Fragment{
			Source: name, RemoteTable: "acct",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}},
			Where: expr.NewBinary(expr.OpAnd,
				expr.NewBinary(expr.OpGe, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(lo))),
				expr.NewBinary(expr.OpLt, expr.NewColRef("", "id"), expr.NewConst(types.NewInt(hi)))),
		}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Timed runs fn and returns its wall-clock duration.
func Timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// OverloadResult tallies one tenant's outcomes from RunOverload.
type OverloadResult struct {
	Tenant   string
	Admitted int64 // queries that completed
	Shed     int64 // queries rejected with a typed admission.ErrOverload
	Failed   int64 // any other error (a hard failure, not load shedding)
	// Latencies holds one wall-clock sample per admitted query.
	Latencies []time.Duration
}

// RunOverload drives eng with `tenants` concurrent clients, each running
// query `perTenant` times under its own tenant identity, and classifies
// every outcome. It is the offered-load half of the overload harness:
// arm the engine (or the wire server behind it) with an admission
// controller sized below tenants to push it past capacity.
func RunOverload(ctx context.Context, eng *core.Engine, tenants, perTenant int, query string) []OverloadResult {
	out := make([]OverloadResult, tenants)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			res := &out[t]
			res.Tenant = fmt.Sprintf("tenant%02d", t)
			tctx := admission.WithTenant(ctx, res.Tenant)
			for i := 0; i < perTenant; i++ {
				start := time.Now()
				_, err := eng.Query(tctx, query)
				switch {
				case err == nil:
					res.Admitted++
					res.Latencies = append(res.Latencies, time.Since(start))
				case errors.Is(err, admission.ErrOverload):
					res.Shed++
					// Honest-client backoff: a shed is an instruction to
					// slow down. Without it a shedding tenant spins through
					// its whole attempt budget in microseconds and can
					// starve before a single slot churns.
					backoff := time.Millisecond
					var oe *admission.OverloadError
					if errors.As(err, &oe) && oe.RetryAfter > backoff {
						backoff = oe.RetryAfter
					}
					if backoff > 5*time.Millisecond {
						backoff = 5 * time.Millisecond
					}
					time.Sleep(backoff)
				default:
					res.Failed++
				}
			}
		}(t)
	}
	wg.Wait()
	return out
}

// Percentile returns the p-th percentile (0–100, nearest-rank) of ds
// without mutating it; zero when ds is empty.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
