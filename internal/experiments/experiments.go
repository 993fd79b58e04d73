// Package experiments implements the reconstructed evaluation of the
// paper: one function per table/figure that builds its workload, runs
// the sweep, and returns the rows the evaluation section reports. The
// gisbench binary prints them; EXPERIMENTS.md records paper-vs-measured
// shapes.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"gis/internal/admission"
	"gis/internal/core"
	"gis/internal/plan"
	"gis/internal/types"
	"gis/internal/workload"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string

	// Allocation census accumulated by median() across every timed op,
	// reported per-op by Record.
	ops    uint64
	allocs uint64
	bytes  uint64
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// median runs fn once untimed (warm-up: connections, code paths), then
// `reps` times timed, and returns the median duration. Heap traffic of
// the timed reps accrues to the table's allocation census, surfaced as
// allocs_per_op/bytes_per_op in the JSON record. The numbers come from
// runtime.ReadMemStats deltas over the whole process, so they are
// averages (not medians) and include any concurrent background
// allocation — good enough to ratchet, not benchmark-grade.
func (t *Table) median(reps int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := workload.Timed(fn)
		if err != nil {
			return 0, err
		}
		times = append(times, d)
	}
	runtime.ReadMemStats(&after)
	t.ops += uint64(reps)
	t.allocs += after.Mallocs - before.Mallocs
	t.bytes += after.TotalAlloc - before.TotalAlloc
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

// queryOnce drains one query; params bind any ?-placeholders in q.
func queryOnce(ctx context.Context, e *core.Engine, q string, params ...types.Value) func() error {
	return func() error {
		_, err := e.Query(ctx, q, params...)
		return err
	}
}

// Scale shrinks workload sizes for quick runs (tests use Scale < 1).
type Scale struct {
	Rows float64
	Reps int
	Link workload.Link
	// Tenants sets the concurrent client count for the overload
	// experiment (OV1); zero means its default.
	Tenants int
}

// DefaultScale is the full evaluation configuration.
func DefaultScale() Scale {
	return Scale{
		Rows: 1.0,
		Reps: 3,
		Link: workload.Link{Latency: 2 * time.Millisecond, BytesPerSec: 50 << 20},
	}
}

func (s Scale) n(base int) int {
	n := int(float64(base) * s.Rows)
	if n < 10 {
		n = 10
	}
	return n
}

// T1Pushdown measures selection pushdown vs ship-everything across
// selectivities (Table 1).
func T1Pushdown(ctx context.Context, sc Scale) (*Table, error) {
	rows := sc.n(20000)
	f, err := workload.TwoTable(ctx, 100, rows, true, sc.Link)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &Table{
		ID:     "T1",
		Title:  "Selection pushdown vs. ship-everything (remote source)",
		Header: []string{"selectivity", "pushdown_ms", "ship_all_ms", "speedup"},
		Notes:  fmt.Sprintf("orders=%d rows, link=%v/%dMBps", rows, sc.Link.Latency, sc.Link.BytesPerSec>>20),
	}
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		// amount is uniform on [0,1000). The query ships the matching
		// rows (no aggregate, so the comparison isolates row shipping).
		bound := sel * 1000
		q := "SELECT oid, amount FROM orders WHERE amount < ?"
		f.Engine.PlanOptions().PushFilters = true
		push, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q, types.NewFloat(bound)))
		if err != nil {
			return nil, err
		}
		f.Engine.PlanOptions().PushFilters = false
		ship, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q, types.NewFloat(bound)))
		if err != nil {
			return nil, err
		}
		f.Engine.PlanOptions().PushFilters = true
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", sel), ms(push), ms(ship), ratio(ship, push),
		})
	}
	return t, nil
}

// T2JoinStrategies compares ship-all and semijoin at three left-side
// sizes (Table 2).
func T2JoinStrategies(ctx context.Context, sc Scale) (*Table, error) {
	nCust := sc.n(2000)
	nOrd := sc.n(20000)
	f, err := workload.TwoTable(ctx, nCust, nOrd, true, sc.Link)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &Table{
		ID:     "T2",
		Title:  "Distributed join strategies (customers ⋈ orders, remote)",
		Header: []string{"left_rows", "ship_all_ms", "semijoin_ms", "best"},
		Notes:  fmt.Sprintf("customers=%d, orders=%d, link=%v", nCust, nOrd, sc.Link.Latency),
	}
	for _, leftFrac := range []float64{0.005, 0.05, 0.5} {
		limit := int(float64(nCust) * leftFrac)
		if limit < 1 {
			limit = 1
		}
		q := `SELECT COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id < ?`
		times := map[plan.Strategy]time.Duration{}
		for _, strat := range []plan.Strategy{plan.StrategyShipAll, plan.StrategySemiJoin} {
			f.Engine.PlanOptions().ForceStrategy = strat
			d, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q, types.NewInt(int64(limit))))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", strat, err)
			}
			times[strat] = d
		}
		f.Engine.PlanOptions().ForceStrategy = plan.StrategyAuto
		best := plan.StrategyShipAll
		if times[plan.StrategySemiJoin] < times[best] {
			best = plan.StrategySemiJoin
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", limit),
			ms(times[plan.StrategyShipAll]),
			ms(times[plan.StrategySemiJoin]),
			best.String(),
		})
	}
	return t, nil
}

// F3JoinOrder measures plan quality and optimization time of the three
// join-order algorithms on star queries of growing size (Figure 3).
func F3JoinOrder(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Join-order search: plan cost (C_out) and optimize time",
		Header: []string{"relations", "dp_cost", "greedy_cost", "syntactic_cost", "dp_us", "greedy_us"},
		Notes:  "star join graphs, hub 1e6 rows, satellites 10..1e5",
	}
	for n := 3; n <= 10; n++ {
		rels := []plan.RelInfo{{Rows: 1e6}}
		var preds []plan.PredInfo
		for i := 1; i < n; i++ {
			rows := float64(10)
			for j := 0; j < i%5; j++ {
				rows *= 10
			}
			rels = append(rels, plan.RelInfo{Rows: rows})
			preds = append(preds, plan.PredInfo{A: 0, B: i, Sel: 1 / rows})
		}
		var dp, greedy plan.SearchResult
		dpTime, _ := workload.Timed(func() error {
			dp = plan.OrderSearch(rels, preds, plan.OrderDP)
			return nil
		})
		greedyTime, _ := workload.Timed(func() error {
			greedy = plan.OrderSearch(rels, preds, plan.OrderGreedy)
			return nil
		})
		syn := plan.OrderSearch(rels, preds, plan.OrderSyntactic)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3g", dp.Cost),
			fmt.Sprintf("%.3g", greedy.Cost),
			fmt.Sprintf("%.3g", syn.Cost),
			fmt.Sprintf("%d", dpTime.Microseconds()),
			fmt.Sprintf("%d", greedyTime.Microseconds()),
		})
	}
	return t, nil
}

// T4FanOut measures parallel vs sequential fragment fetch as the number
// of partitions grows (Table 4).
func T4FanOut(ctx context.Context, sc Scale) (*Table, error) {
	total := sc.n(16000)
	t := &Table{
		ID:     "T4",
		Title:  "Fan-out scalability: parallel vs sequential fragment fetch",
		Header: []string{"partitions", "sequential_ms", "parallel_ms", "speedup"},
		Notes:  fmt.Sprintf("%d total rows, link=%v", total, sc.Link.Latency),
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		f, err := workload.Partitioned(ctx, k, total/k, true, sc.Link)
		if err != nil {
			return nil, err
		}
		q := "SELECT SUM(amount) FROM events"
		f.Engine.PlanOptions().ParallelFragments = false
		seq, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Engine.PlanOptions().ParallelFragments = true
		par, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), ms(seq), ms(par), ratio(seq, par),
		})
	}
	return t, nil
}

// F5Mediation measures the overhead of representation translation
// (Figure 5): the same physical data queried through an identity mapping
// vs a value-mapped/unit-converted/constant-extended mapping.
func F5Mediation(ctx context.Context, sc Scale) (*Table, error) {
	rows := sc.n(50000)
	f, err := workload.Heterogeneous(ctx, rows, false, workload.Link{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &Table{
		ID:     "F5",
		Title:  "Mediation overhead: native vs translated representation (local)",
		Header: []string{"query", "native_ms", "mediated_ms", "overhead"},
		Notes:  fmt.Sprintf("%d rows; translation = value map + unit conversion + const column", rows),
	}
	cases := []struct {
		name     string
		native   string
		mediated string
	}{
		{"scan+count", "SELECT COUNT(*) FROM orders_native", "SELECT COUNT(*) FROM orders_mediated"},
		{"filter", "SELECT COUNT(*) FROM orders_native WHERE rg = 'N'", "SELECT COUNT(*) FROM orders_mediated WHERE region = 'north'"},
		{"sum", "SELECT SUM(cents) FROM orders_native", "SELECT SUM(amount) FROM orders_mediated"},
	}
	for _, c := range cases {
		nat, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, c.native))
		if err != nil {
			return nil, err
		}
		med, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, c.mediated))
		if err != nil {
			return nil, err
		}
		over := fmt.Sprintf("%.0f%%", (float64(med)/float64(nat)-1)*100)
		t.Rows = append(t.Rows, []string{c.name, ms(nat), ms(med), over})
	}
	return t, nil
}

// T6Commit measures two-phase commit cost vs the unsafe one-round
// baseline as participants grow (Table 6).
func T6Commit(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		ID:     "T6",
		Title:  "Atomic commitment: 2PC vs uncoordinated per-source commits",
		Header: []string{"participants", "two_pc_ms", "uncoordinated_ms", "penalty"},
		Notes:  fmt.Sprintf("global UPDATE touching every participant, link=%v", sc.Link.Latency),
	}
	for _, n := range []int{1, 2, 4, 8} {
		f, err := workload.TxnStores(ctx, n, 50, true, sc.Link)
		if err != nil {
			return nil, err
		}
		two, err := t.median(sc.Reps, func() error {
			_, err := f.Engine.Exec(ctx, "UPDATE accounts SET balance = balance + 1")
			return err
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		// Uncoordinated baseline: per-participant autocommit updates.
		rowsPer := 50
		uncoord, err := t.median(sc.Reps, func() error {
			for p := 0; p < n; p++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				lo, hi := p*rowsPer, (p+1)*rowsPer
				q := "UPDATE accounts SET balance = balance + 1 WHERE id >= ? AND id < ?"
				if _, err := f.Engine.Exec(ctx, q, types.NewInt(int64(lo)), types.NewInt(int64(hi))); err != nil {
					return err
				}
			}
			return nil
		})
		f.Close()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), ms(two), ms(uncoord), ratio(two, uncoord),
		})
	}
	return t, nil
}

// F7SemijoinCrossover sweeps the left-side fraction to locate where
// ship-all overtakes semijoin (Figure 7).
func F7SemijoinCrossover(ctx context.Context, sc Scale) (*Table, error) {
	nCust := sc.n(5000)
	nOrd := sc.n(20000)
	f, err := workload.TwoTable(ctx, nCust, nOrd, true, sc.Link)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &Table{
		ID:     "F7",
		Title:  "Semijoin benefit vs join selectivity (crossover)",
		Header: []string{"left_frac", "semijoin_ms", "ship_all_ms", "winner"},
		Notes:  fmt.Sprintf("customers=%d orders=%d link=%v", nCust, nOrd, sc.Link.Latency),
	}
	for _, frac := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		limit := int(float64(nCust) * frac)
		if limit < 1 {
			limit = 1
		}
		q := `SELECT COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.id < ?`
		f.Engine.PlanOptions().ForceStrategy = plan.StrategySemiJoin
		semi, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q, types.NewInt(int64(limit))))
		if err != nil {
			return nil, err
		}
		f.Engine.PlanOptions().ForceStrategy = plan.StrategyShipAll
		ship, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q, types.NewInt(int64(limit))))
		if err != nil {
			return nil, err
		}
		f.Engine.PlanOptions().ForceStrategy = plan.StrategyAuto
		winner := "semijoin"
		if ship < semi {
			winner = "ship-all"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", frac), ms(semi), ms(ship), winner,
		})
	}
	return t, nil
}

// T8Capability runs the same query against wrappers of descending
// capability and reports the latency of compensation (Table 8).
func T8Capability(ctx context.Context, sc Scale) (*Table, error) {
	rows := sc.n(20000)
	f, err := workload.Capability(ctx, rows)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &Table{
		ID:     "T8",
		Title:  "Capability-restricted sources: pushdown vs mediator compensation",
		Header: []string{"wrapper", "capabilities", "filter_agg_ms", "point_ms"},
		Notes:  fmt.Sprintf("%d rows per wrapper; filter_agg = non-key filter + aggregate; point = key equality", rows),
	}
	wrappers := []struct {
		table string
		caps  string
	}{
		{"orders_rel", "full SQL"},
		{"orders_kv", "key range only"},
		{"orders_doc", "filter+project"},
		{"orders_file", "scan only"},
	}
	for _, w := range wrappers {
		// The FROM identifier selects which wrapper is exercised; table
		// names are not a value position, so ?-binding cannot express
		// this, and w.table ranges over the fixed literal list above.
		aggQ := fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM %s WHERE region = 'north'", w.table)
		//lint:ignore sqlship table name picks the wrapper under test; drawn from the literal list above, not runtime input
		agg, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, aggQ))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.table, err)
		}
		pointQ := fmt.Sprintf("SELECT amount FROM %s WHERE oid = ?", w.table)
		//lint:ignore sqlship table name picks the wrapper under test; the key bound is ?-bound
		point, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, pointQ, types.NewInt(int64(rows/2))))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.table, err)
		}
		t.Rows = append(t.Rows, []string{w.table, w.caps, ms(agg), ms(point)})
	}
	return t, nil
}

// F9Ablation disables one optimizer rule at a time on a representative
// federated query (Figure 9).
func F9Ablation(ctx context.Context, sc Scale) (*Table, error) {
	nCust := sc.n(2000)
	nOrd := sc.n(20000)
	f, err := workload.TwoTable(ctx, nCust, nOrd, true, sc.Link)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	q := `SELECT c.segment, COUNT(*) FROM customers c JOIN orders o ON c.id = o.cust_id
	      WHERE o.amount < 100 AND c.id < 500 GROUP BY c.segment`
	t := &Table{
		ID:     "F9",
		Title:  "Optimizer ablation: disable one rule at a time",
		Header: []string{"configuration", "latency_ms", "slowdown"},
		Notes:  fmt.Sprintf("filter+join+agg over customers=%d orders=%d, link=%v", nCust, nOrd, sc.Link.Latency),
	}
	type mode struct {
		name  string
		tweak func(*plan.Options)
	}
	modes := []mode{
		{"full optimizer", func(o *plan.Options) {}},
		{"no filter pushdown", func(o *plan.Options) { o.PushFilters = false }},
		{"no column pruning", func(o *plan.Options) { o.PruneColumns = false }},
		{"no aggregate pushdown", func(o *plan.Options) { o.PushAggregates = false }},
		{"no join strategy (ship-all)", func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }},
		{"sequential fragments", func(o *plan.Options) { o.ParallelFragments = false }},
		{"greedy join order", func(o *plan.Options) { o.JoinOrder = plan.OrderGreedy }},
	}
	var base time.Duration
	for i, m := range modes {
		opts := plan.DefaultOptions()
		m.tweak(opts)
		*f.Engine.PlanOptions() = *opts
		d, err := t.median(sc.Reps, queryOnce(ctx, f.Engine, q))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		if i == 0 {
			base = d
		}
		t.Rows = append(t.Rows, []string{m.name, ms(d), ratio(d, base)})
	}
	return t, nil
}

// All runs every experiment at the given scale.
func All(ctx context.Context, sc Scale) ([]*Table, error) {
	type exp struct {
		id string
		fn func(context.Context, Scale) (*Table, error)
	}
	exps := []exp{
		{"T1", T1Pushdown},
		{"T2", T2JoinStrategies},
		{"F3", F3JoinOrder},
		{"T4", T4FanOut},
		{"F5", F5Mediation},
		{"T6", T6Commit},
		{"F7", F7SemijoinCrossover},
		{"T8", T8Capability},
		{"F9", F9Ablation},
	}
	var out []*Table
	for _, e := range exps {
		t, err := e.fn(ctx, sc)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ByID runs one experiment.
func ByID(ctx context.Context, id string, sc Scale) (*Table, error) {
	switch strings.ToUpper(id) {
	case "T1":
		return T1Pushdown(ctx, sc)
	case "T2":
		return T2JoinStrategies(ctx, sc)
	case "F3":
		return F3JoinOrder(ctx, sc)
	case "T4":
		return T4FanOut(ctx, sc)
	case "F5":
		return F5Mediation(ctx, sc)
	case "T6":
		return T6Commit(ctx, sc)
	case "F7":
		return F7SemijoinCrossover(ctx, sc)
	case "T8":
		return T8Capability(ctx, sc)
	case "F9":
		return F9Ablation(ctx, sc)
	case "OV1":
		return OV1Overload(ctx, sc)
	default:
		return nil, fmt.Errorf("unknown experiment %q (T1,T2,F3,T4,F5,T6,F7,T8,F9,OV1)", id)
	}
}

// OV1Overload measures admission control under sustained overload: N
// tenants hammer the same federated aggregate while the controller caps
// concurrency at N/4 of the offered parallelism (≥4x overload), so a
// slice of every tenant's traffic must be shed. Reported per tenant:
// admitted count, typed-overload shed count, and latency percentiles of
// the admitted queries against an uncontended sequential baseline. Not
// part of the default sweep — run via `gisbench -overload`.
func OV1Overload(ctx context.Context, sc Scale) (*Table, error) {
	tenants := sc.Tenants
	if tenants <= 0 {
		tenants = 8
	}
	rows := sc.n(5000)
	f, err := workload.TwoTable(ctx, 100, rows, true, sc.Link)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	const q = "SELECT region, SUM(amount) FROM orders GROUP BY region"

	// Uncontended baseline: sequential, no controller installed.
	baseReps := sc.Reps * 3
	if baseReps < 5 {
		baseReps = 5
	}
	if _, err := f.Engine.Query(ctx, q); err != nil { // warm-up
		return nil, err
	}
	base := make([]time.Duration, 0, baseReps)
	for i := 0; i < baseReps; i++ {
		d, err := workload.Timed(queryOnce(ctx, f.Engine, q))
		if err != nil {
			return nil, err
		}
		base = append(base, d)
	}

	inflight := tenants / 4
	if inflight < 1 {
		inflight = 1
	}
	f.Engine.SetAdmission(admission.New(admission.Config{
		MaxInFlight: inflight,
		MaxQueue:    inflight * 2,
		MaxWait:     100 * time.Millisecond,
	}))
	perTenant := sc.Reps * 4
	if perTenant < 8 {
		perTenant = 8
	}
	results := workload.RunOverload(ctx, f.Engine, tenants, perTenant, q)

	t := &Table{
		ID:     "OV1",
		Title:  "Admission control under overload (offered load vs. capacity)",
		Header: []string{"tenant", "admitted", "shed", "p50_ms", "p99_ms"},
		Notes: fmt.Sprintf("tenants=%d max_inflight=%d per_tenant=%d orders=%d rows; shed = typed ErrOverload",
			tenants, inflight, perTenant, rows),
	}
	t.Rows = append(t.Rows, []string{
		"uncontended", fmt.Sprint(baseReps), "0",
		ms(workload.Percentile(base, 50)), ms(workload.Percentile(base, 99)),
	})
	var admitted, shed, failed int64
	var all []time.Duration
	for _, r := range results {
		admitted += r.Admitted
		shed += r.Shed
		failed += r.Failed
		all = append(all, r.Latencies...)
		t.Rows = append(t.Rows, []string{
			r.Tenant, fmt.Sprint(r.Admitted), fmt.Sprint(r.Shed),
			ms(workload.Percentile(r.Latencies, 50)), ms(workload.Percentile(r.Latencies, 99)),
		})
	}
	t.Rows = append(t.Rows, []string{
		"all", fmt.Sprint(admitted), fmt.Sprint(shed),
		ms(workload.Percentile(all, 50)), ms(workload.Percentile(all, 99)),
	})
	if failed > 0 {
		return nil, fmt.Errorf("overload run: %d hard failures (every rejection must be a typed overload)", failed)
	}
	return t, nil
}

// Record is the machine-readable form of one experiment's measurement
// series, emitted one JSON object per line by `gisbench -json`. The
// schema is documented in EXPERIMENTS.md and guarded against drift by
// scripts/benchjson; BENCH_*.json trajectory files hold sequences of
// these records.
type Record struct {
	// ID and Title identify the experiment (e.g. "T1").
	ID    string `json:"id"`
	Title string `json:"title"`
	// Header names the series columns; every element of Rows has
	// exactly len(Header) cells (stringified measurements).
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  string     `json:"notes,omitempty"`
	// The workload configuration the series was measured under.
	Scale          float64 `json:"scale"`
	Reps           int     `json:"reps"`
	LatencyMS      float64 `json:"latency_ms"`
	BandwidthMiBps int64   `json:"bandwidth_mibps"`
	// ElapsedMS is the wall-clock cost of producing the series.
	ElapsedMS float64 `json:"elapsed_ms"`
	// AllocsPerOp / BytesPerOp average the heap traffic of the timed
	// measurement ops (ReadMemStats deltas; zero when nothing was
	// measured through median, e.g. planning-only experiments).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// At is the measurement timestamp in RFC 3339 format.
	At string `json:"at"`
}

// Record converts the table and its scale into the JSON line schema.
func (t *Table) Record(sc Scale, elapsed time.Duration, at time.Time) Record {
	return Record{
		ID:             t.ID,
		Title:          t.Title,
		Header:         t.Header,
		Rows:           t.Rows,
		Notes:          t.Notes,
		Scale:          sc.Rows,
		Reps:           sc.Reps,
		LatencyMS:      float64(sc.Link.Latency) / float64(time.Millisecond),
		BandwidthMiBps: sc.Link.BytesPerSec >> 20,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		AllocsPerOp:    perOp(t.allocs, t.ops),
		BytesPerOp:     perOp(t.bytes, t.ops),
		At:             at.UTC().Format(time.RFC3339),
	}
}

func perOp(total, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}
