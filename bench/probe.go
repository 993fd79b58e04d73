package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"
	"unsafe"

	"gis/internal/admission"
	"gis/internal/catalog"
	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
	"gis/internal/wire"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 7

// sink keeps the compiler from discarding a probe's work.
var sink uint64

// perOp times fn, which performs ops operations, probeReps times and
// returns the median nanoseconds per operation.
func perOp(ops int, fn func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0)) / float64(ops)
	}
	return median(xs)
}

// probeInputs are the probes' fixed inputs: not drawn from -seed, since
// a probe compares one layer with itself across commits and every
// traced run reports all of them.
type probeInputs struct {
	big   []types.Row // 100 000 orders: codec, expression, relstore, wire stream
	small []order     // 20 000 orders: the three weaker stores
	// Loop counts shrink with the scale too, so the package tests stay quick.
	lookups, cheap int
}

// boundExpr parses and binds a predicate over the orders schema.
func boundExpr(text string) (expr.Expr, error) {
	e, err := sql.ParseExpr(text)
	if err != nil {
		return nil, err
	}
	return expr.Bind(e, ordersSchema)
}

// drained runs one query directly against a source and counts its rows
// into the sink; the probes' queries cannot fail once set-up succeeded.
func drained(ctx context.Context, src source.Source, q *source.Query) {
	it, err := src.Execute(ctx, q)
	if err != nil {
		return
	}
	rows, _ := source.Drain(it) // a short count shows in the probe's number
	sink += uint64(len(rows))
}

// repeatLookup repeats one query n times, or until the run is cancelled.
func repeatLookup(ctx context.Context, src source.Source, q *source.Query, n int) {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		drained(ctx, src, q)
	}
}

// runProbes calls single layers' public functions directly. A probe
// that cannot run reports 0 and says why on standard error.
func runProbes(ctx context.Context, z sizes) map[string]float64 {
	rng := rand.New(rand.NewSource(42))
	in := &probeInputs{
		big:     orderRows(genOrders(rng, z.n(100000), 2000)),
		small:   genOrders(rng, z.n(20000), 1000),
		lookups: z.n(2000),
		cheap:   z.n(100000),
	}
	out := map[string]float64{}
	for _, p := range []struct {
		name string
		run  func(context.Context, *probeInputs, map[string]float64) error
	}{
		{"types", probeTypes}, {"expr", probeExpr}, {"plan", probePlan}, {"relstore, catalog, wire", probeRelstore},
		{"wire codec", probeCodec}, {"kvstore", probeKV}, {"docstore", probeDoc}, {"filestore", probeFile},
		{"admission", probeAdmission}, {"obs", probeObs},
	} {
		if err := p.run(ctx, in, out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", p.name, err)
		}
	}
	return out
}

// probeTypes: size, hash and compare over a mix of kinds.
func probeTypes(_ context.Context, _ *probeInputs, out map[string]float64) error {
	out["types.value_bytes"] = float64(unsafe.Sizeof(types.Value{}))
	mixed := make([]types.Value, 0, 4*1024)
	for i := 0; i < 1024; i++ {
		mixed = append(mixed, types.NewInt(int64(i)*7919), types.NewFloat(float64(i)/3),
			types.NewString(fmt.Sprintf("cust-%06d", i)), types.NewBool(i%2 == 0))
	}
	out["types.hash_ns"] = perOp(len(mixed)*64, func() {
		for r := 0; r < 64; r++ {
			for _, v := range mixed {
				sink += v.Hash(0)
			}
		}
	})
	out["types.compare_ns"] = perOp((len(mixed)-4)*64, func() {
		for r := 0; r < 64; r++ {
			for i := 4; i < len(mixed); i++ {
				sink += uint64(mixed[i].Compare(mixed[i-4])) // same kind four back
			}
		}
	})
	return nil
}

// probeExpr: bind once, evaluate over every row.
func probeExpr(_ context.Context, in *probeInputs, out map[string]float64) error {
	pred, err := boundExpr("amount < 50000 AND region = 'north'")
	if err != nil {
		return err
	}
	out["expr.eval_ns_per_row"] = perOp(len(in.big), func() {
		for _, r := range in.big {
			if ok, _ := expr.EvalBool(pred, r); ok {
				sink++
			}
		}
	})
	return nil
}

// probePlan: dynamic-programming join order of an 8-relation star.
func probePlan(_ context.Context, _ *probeInputs, out map[string]float64) error {
	rels := make([]plan.RelInfo, 8)
	var preds []plan.PredInfo
	for i := range rels {
		rels[i] = plan.RelInfo{Rows: float64(1000 * (i + 1))}
		if i > 0 {
			preds = append(preds, plan.PredInfo{A: 0, B: i, Sel: 1 / float64(1000*(i+1))})
		}
	}
	out["plan.joinorder_dp8_us"] = perOp(20, func() {
		for i := 0; i < 20; i++ {
			sink += uint64(len(plan.OrderSearch(rels, preds, plan.OrderDP).Order))
		}
	}) / 1e3
	return nil
}

// probeRelstore loads the big table into a relstore and times it
// directly (a full scan under a predicate every row passes, a
// primary-key lookup), through a catalog (table and source lookup), and
// over loopback with a perfect link (a one-row round trip, a full
// stream).
func probeRelstore(ctx context.Context, in *probeInputs, out map[string]float64) error {
	rs := relstore.New("probe_rel")
	if err := relTable(ctx, rs, "orders", ordersSchema, in.big); err != nil {
		return err
	}
	all, err := boundExpr("amount >= 0")
	if err != nil {
		return err
	}
	one, err := boundExpr("oid = 42")
	if err != nil {
		return err
	}
	lookup := &source.Query{Table: "orders", Filter: one, Limit: -1}
	out["relstore.scan_ns_per_row"] = perOp(len(in.big), func() {
		drained(ctx, rs, &source.Query{Table: "orders", Filter: all, Limit: -1})
	})
	out["relstore.index_lookup_us"] = perOp(in.lookups, func() { repeatLookup(ctx, rs, lookup, in.lookups) }) / 1e3

	cat := catalog.New()
	if err := cat.AddSource(rs); err != nil {
		return err
	}
	if err := cat.DefineTable("orders", ordersSchema); err != nil {
		return err
	}
	if err := cat.MapSimple(ctx, "orders", "probe_rel", "orders"); err != nil {
		return err
	}
	out["catalog.lookup_ns"] = perOp(in.cheap, func() {
		for i := 0; i < in.cheap; i++ {
			t, _ := cat.Table("orders")
			s, _ := cat.Source("probe_rel")
			if t != nil && s != nil {
				sink++
			}
		}
	})

	srv, err := wire.Serve(ctx, "127.0.0.1:0", rs)
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithName("probe_rel"))
	if err != nil {
		return err
	}
	defer cl.Close()
	out["wire.roundtrip_us"] = perOp(in.lookups, func() { repeatLookup(ctx, cl, lookup, in.lookups) }) / 1e3
	out["wire.stream_rows_per_s"] = 1e9 / perOp(len(in.big), func() { drained(ctx, cl, source.NewScan("orders")) })
	return nil
}

// probeCodec: rows into frames of 256, and back out.
func probeCodec(_ context.Context, in *probeInputs, out map[string]float64) error {
	var enc wire.Encoder
	var frames [][]byte
	out["wire.encode_ns_per_row"] = perOp(len(in.big), func() {
		frames = frames[:0]
		for i := 0; i < len(in.big); i += 256 {
			enc.Reset()
			for _, r := range in.big[i:min(i+256, len(in.big))] {
				enc.Row(r)
			}
			frames = append(frames, append([]byte(nil), enc.Bytes()...))
		}
	})
	encoded := 0
	for _, f := range frames {
		encoded += len(f)
	}
	out["wire.bytes_per_row"] = float64(encoded) / float64(len(in.big))
	var decodeErr error
	out["wire.decode_ns_per_row"] = perOp(len(in.big), func() {
		for _, f := range frames {
			for d := wire.NewDecoder(f); d.Remaining() > 0; {
				r, err := d.Row()
				if err != nil {
					decodeErr = err
					return
				}
				sink += uint64(len(r))
			}
		}
	})
	return decodeErr
}

func probeKV(ctx context.Context, in *probeInputs, out map[string]float64) error {
	kv := kvstore.New("probe_kv")
	if err := kv.CreateBucket("orders", ordersSchema, 0); err != nil {
		return err
	}
	if _, err := kv.Insert(ctx, "orders", orderRows(in.small)); err != nil {
		return err
	}
	key, err := boundExpr("oid = 42")
	if err != nil {
		return err
	}
	out["kvstore.scan_ns_per_row"] = perOp(len(in.small), func() { drained(ctx, kv, source.NewScan("orders")) })
	lookup := &source.Query{Table: "orders", Filter: key, Limit: -1}
	out["kvstore.key_lookup_us"] = perOp(in.lookups, func() { repeatLookup(ctx, kv, lookup, in.lookups) }) / 1e3
	return nil
}

func probeDoc(ctx context.Context, in *probeInputs, out map[string]float64) error {
	ds := docstore.New("probe_doc")
	if err := loadDocs(ds, in.small); err != nil {
		return err
	}
	out["docstore.scan_ns_per_row"] = perOp(len(in.small), func() { drained(ctx, ds, source.NewScan("orders")) })
	return nil
}

func probeFile(ctx context.Context, in *probeInputs, out map[string]float64) error {
	fs := filestore.New("probe_file")
	if err := fs.RegisterData("orders", ordersCSV(in.small), ordersSchema); err != nil {
		return err
	}
	out["filestore.scan_ns_per_row"] = perOp(len(in.small), func() { drained(ctx, fs, source.NewScan("orders")) })
	return nil
}

// probeAdmission: admit and release with nothing else in flight.
func probeAdmission(ctx context.Context, in *probeInputs, out map[string]float64) error {
	ctrl := admission.New(admission.Config{MaxInFlight: 64})
	var shed error
	out["admission.admit_release_ns"] = perOp(in.cheap, func() {
		for i := 0; i < in.cheap; i++ {
			_, sess, err := ctrl.Admit(ctx, "")
			if err != nil {
				shed = err
				return
			}
			sess.Release()
		}
	})
	return shed
}

// probeObs: a span started and ended without, then with, a trace on the
// context. A fresh trace per repetition keeps the span tree bounded.
func probeObs(ctx context.Context, in *probeInputs, out map[string]float64) error {
	spans := func(ctx context.Context, n int) {
		for i := 0; i < n; i++ {
			_, sp := obs.StartSpan(ctx, obs.SpanExec, "probe")
			sp.End()
		}
	}
	out["obs.span_off_ns"] = perOp(in.cheap, func() { spans(ctx, in.cheap) })
	out["obs.span_on_ns"] = perOp(in.cheap/5, func() { spans(obs.WithTrace(ctx, obs.NewTrace("probe")), in.cheap/5) })
	return nil
}
