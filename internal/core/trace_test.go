package core

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/filestore"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
	"gis/internal/wire"
)

// traceFederation builds a two-site wire federation: site <a> holds
// cust(id, name), site <b> holds ord(oid, cust_id, amount), and a third
// federated table "acct" is range-partitioned across both sites so 2PC
// writes have two participants. Source names are caller-chosen so each
// test reads its own wire.client.<name>.* counters.
func traceFederation(t *testing.T, a, b string) *Engine {
	t.Helper()
	mk := func(name string) (*relstore.Store, *wire.Server) {
		st := relstore.New(name)
		srv, err := wire.Serve(context.Background(), "127.0.0.1:0", st)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return st, srv
	}
	stA, srvA := mk(a)
	stB, srvB := mk(b)

	if err := stA.CreateTable("cust", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "name", Type: types.KindString},
	), 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, stA, "cust", []types.Row{
		{types.NewInt(1), types.NewString("alice")},
		{types.NewInt(2), types.NewString("bob")},
	})
	if err := stB.CreateTable("ord", types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
	), 0); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, stB, "ord", []types.Row{
		{types.NewInt(10), types.NewInt(1), types.NewFloat(5)},
		{types.NewInt(11), types.NewInt(2), types.NewFloat(7)},
		{types.NewInt(12), types.NewInt(1), types.NewFloat(9)},
	})
	acctSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "balance", Type: types.KindFloat},
	)
	for st, base := range map[*relstore.Store]int64{stA: 0, stB: 100} {
		if err := st.CreateTable("acct", acctSchema, 0); err != nil {
			t.Fatal(err)
		}
		mustInsert(t, st, "acct", []types.Row{
			{types.NewInt(base + 1), types.NewFloat(50)},
			{types.NewInt(base + 2), types.NewFloat(60)},
		})
	}

	cfg := fmt.Sprintf(`{
	  "sources": [
	    {"name": "%s", "addr": "%s"},
	    {"name": "%s", "addr": "%s"}
	  ],
	  "tables": [
	    {"name": "cust",
	     "columns": [{"name": "id", "type": "int"}, {"name": "name", "type": "string"}],
	     "fragments": [{"source": "%s", "remote_table": "cust",
	       "columns": [{"remote_col": 0}, {"remote_col": 1}]}]},
	    {"name": "ord",
	     "columns": [{"name": "oid", "type": "int"}, {"name": "cust_id", "type": "int"},
	                 {"name": "amount", "type": "float"}],
	     "fragments": [{"source": "%s", "remote_table": "ord",
	       "columns": [{"remote_col": 0}, {"remote_col": 1}, {"remote_col": 2}]}]},
	    {"name": "acct",
	     "columns": [{"name": "id", "type": "int"}, {"name": "balance", "type": "float"}],
	     "fragments": [
	       {"source": "%s", "remote_table": "acct",
	        "columns": [{"remote_col": 0}, {"remote_col": 1}], "where": "id < 100"},
	       {"source": "%s", "remote_table": "acct",
	        "columns": [{"remote_col": 0}, {"remote_col": 1}], "where": "id >= 100"}
	     ]}
	  ]
	}`, a, srvA.Addr(), b, srvB.Addr(), a, b, a, b)

	e := New()
	var clients []*wire.Client
	dial := func(ctx context.Context, sc catalog.SourceConfig) (source.Source, error) {
		cl, err := wire.DialContext(ctx, sc.Addr, wire.WithName(sc.Name))
		if err == nil {
			clients = append(clients, cl)
		}
		return cl, err
	}
	if err := e.ApplyConfig(context.Background(), []byte(cfg), dial); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, cl := range clients {
			cl.Close()
		}
	})
	e.SetTracing(true)
	return e
}

// TestTraceFederatedJoin runs a two-source join under tracing and checks
// the span tree: pipeline phases, one ship span per source with SQL,
// row, and byte attributes, and nonzero wire metrics for both links.
func TestTraceFederatedJoin(t *testing.T) {
	e := traceFederation(t, "trjA", "trjB")

	res := query(t, e,
		"SELECT c.name, SUM(o.amount) FROM cust c JOIN ord o ON c.id = o.cust_id GROUP BY c.name")
	if len(res.Rows) != 2 {
		t.Fatalf("join returned %d rows, want 2", len(res.Rows))
	}

	tr := e.TraceLast()
	if tr == nil {
		t.Fatal("TraceLast() = nil after traced query")
	}
	root := tr.Data()
	if root.Kind != obs.SpanQuery.String() {
		t.Errorf("root kind = %v, want query", root.Kind)
	}
	for _, kind := range []obs.SpanKind{
		obs.SpanParse, obs.SpanResolve, obs.SpanOptimize, obs.SpanDecompose, obs.SpanExec,
	} {
		if len(root.FindAll(kind)) == 0 {
			t.Errorf("no %v span in trace:\n%s", kind, tr.Tree())
		}
	}

	ships := root.FindAll(obs.SpanShip)
	if len(ships) < 2 {
		t.Fatalf("want >= 2 ship spans (one per source), got %d:\n%s", len(ships), tr.Tree())
	}
	bySource := map[string]bool{}
	for _, sp := range ships {
		src, ok := sp.Attr("source")
		if !ok {
			t.Fatalf("ship span %q lacks source attr", sp.Name)
		}
		bySource[src] = true
		// The shipped query renders in the source query language
		// ("scan <table> where ... cols[...]"), showing pushed work.
		if sql, ok := sp.Attr("sql"); !ok || !strings.HasPrefix(sql, "scan ") {
			t.Errorf("ship span for %s: sql attr = %q", src, sql)
		}
		rows, ok := sp.Attr("rows")
		if !ok {
			t.Fatalf("ship span for %s lacks rows attr", src)
		}
		if n, err := strconv.Atoi(rows); err != nil || n <= 0 {
			t.Errorf("ship span for %s: rows = %q, want positive int", src, rows)
		}
		if bts, ok := sp.Attr("bytes"); !ok || bts == "0" {
			t.Errorf("ship span for %s: bytes = %q, want nonzero", src, bts)
		}
	}
	if !bySource["trjA"] || !bySource["trjB"] {
		t.Errorf("ship spans cover sources %v, want both trjA and trjB", bySource)
	}
	if fetches := root.FindAll(obs.SpanFetch); len(fetches) < 2 {
		t.Errorf("want >= 2 fetch spans, got %d", len(fetches))
	}

	// The JSON form round-trips to the same shape.
	js, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var data struct {
		Name string        `json:"name"`
		Root *obs.SpanData `json:"root"`
	}
	if err := json.Unmarshal(js, &data); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if data.Root == nil || data.Root.Kind != obs.SpanQuery.String() || len(data.Root.Children) == 0 {
		t.Errorf("JSON root = %+v, want query kind with children", data.Root)
	}

	// Both wire links recorded traffic.
	snap := obs.Default().Snapshot()
	for _, name := range []string{"trjA", "trjB"} {
		for _, c := range []string{"frames_out", "frames_in", "bytes_out", "bytes_in"} {
			key := "wire.client." + name + "." + c
			if snap.Counters[key] <= 0 {
				t.Errorf("counter %s = %d, want > 0", key, snap.Counters[key])
			}
		}
		h := snap.Histograms["wire.client."+name+".rtt_seconds"]
		if h.Count <= 0 {
			t.Errorf("rtt histogram for %s empty", name)
		}
	}
}

// TestTrace2PCUpdate runs a cross-partition UPDATE and checks the write
// and two-phase-commit span shape: a write span, a 2pc commit span with
// the participant count and outcome, and per-participant prepare and
// commit children covering both sites.
func TestTrace2PCUpdate(t *testing.T) {
	e := traceFederation(t, "tr2A", "tr2B")

	n, err := e.Exec(ctx, "UPDATE acct SET balance = balance + 1 WHERE id = 1 OR id = 101")
	if err != nil || n != 2 {
		t.Fatalf("cross-site update = %d, %v; want 2", n, err)
	}

	tr := e.TraceLast()
	if tr == nil {
		t.Fatal("TraceLast() = nil after traced update")
	}
	root := tr.Data()
	writes := root.FindAll(obs.SpanWrite)
	if len(writes) != 1 || writes[0].Name != "update" {
		t.Fatalf("write spans = %v, want one named update:\n%s", len(writes), tr.Tree())
	}
	if aff, _ := writes[0].Attr("affected"); aff != "2" {
		t.Errorf("write span affected = %q, want 2", aff)
	}

	var twopc *obs.SpanData
	for _, sp := range root.FindAll(obs.SpanCommit) {
		if strings.HasPrefix(sp.Name, "2pc ") {
			twopc = sp
			break
		}
	}
	if twopc == nil {
		t.Fatalf("no 2pc commit span:\n%s", tr.Tree())
	}
	if p, _ := twopc.Attr("participants"); p != "2" {
		t.Errorf("2pc participants = %q, want 2", p)
	}
	if out, _ := twopc.Attr("outcome"); out != "committed" {
		t.Errorf("2pc outcome = %q, want committed", out)
	}

	prepared := map[string]bool{}
	for _, sp := range root.FindAll(obs.SpanPrepare) {
		prepared[sp.Name] = true
	}
	if !prepared["tr2A"] || !prepared["tr2B"] {
		t.Errorf("prepare spans cover %v, want both tr2A and tr2B:\n%s", prepared, tr.Tree())
	}
	commits := 0
	for _, sp := range twopc.Children {
		if sp.Kind == obs.SpanCommit.String() {
			commits++
		}
	}
	if commits != 2 {
		t.Errorf("2pc span has %d commit children, want 2:\n%s", commits, tr.Tree())
	}
}

// TestExplainAnalyzeParallelUnion checks that per-operator row counts
// stay correct when fragment scans run concurrently: the fragment rows
// must sum to the table's cardinality with no double or lost counts.
// check.sh runs this under the race detector.
func TestExplainAnalyzeParallelUnion(t *testing.T) {
	e := newTestEngine(t)
	e.PlanOptions().ParallelFragments = true

	out, err := e.ExplainAnalyze(ctx, "SELECT oid, qty FROM orders WHERE qty >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FragScan ny.orders") || !strings.Contains(out, "FragScan eu.orders") {
		t.Fatalf("expected both fragments in plan:\n%s", out)
	}
	re := regexp.MustCompile(`FragScan \S+ .*\(rows=(\d+)`)
	sum := 0
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	if sum != 6 {
		t.Errorf("fragment rows sum to %d, want 6:\n%s", sum, out)
	}
	if !strings.Contains(out, "total: 6 row(s)") {
		t.Errorf("missing total:\n%s", out)
	}
}

// TestTracingOffByDefault guards the cheap-disabled-path contract: a
// fresh engine records no trace until SetTracing(true).
func TestTracingOffByDefault(t *testing.T) {
	e := newTestEngine(t)
	query(t, e, "SELECT COUNT(*) FROM customers")
	if tr := e.TraceLast(); tr != nil {
		t.Fatalf("TraceLast() = %v with tracing off, want nil", tr.Name())
	}
	e.SetTracing(true)
	query(t, e, "SELECT COUNT(*) FROM customers")
	if e.TraceLast() == nil {
		t.Fatal("TraceLast() = nil with tracing on")
	}
}

// TestQueryLogRecordsSlowQueries exercises the engine-level query log:
// with a zero threshold every statement lands in the slow ring.
func TestQueryLogRecordsSlowQueries(t *testing.T) {
	e := newTestEngine(t)
	e.Queries().SetThreshold(0)
	query(t, e, "SELECT COUNT(*) FROM customers")
	slow := e.Queries().Slow()
	if len(slow) == 0 {
		t.Fatal("no slow queries recorded at zero threshold")
	}
	if !strings.Contains(slow[0].SQL, "COUNT(*)") {
		t.Errorf("slow[0].SQL = %q", slow[0].SQL)
	}
	if d := time.Duration(slow[0].DurationMS * float64(time.Millisecond)); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	if len(e.Queries().Active()) != 0 {
		t.Errorf("active queries = %v after completion, want none", e.Queries().Active())
	}
}

// TestTraceFederationWideStitch checks the full distributed-tracing
// path through the engine: every ship span of a traced federated join
// carries a stitched SpanRemote subtree (the component system's
// parse/exec/stream spans returned in the stream's footer) and the
// remote-vs-WAN split.
func TestTraceFederationWideStitch(t *testing.T) {
	e := traceFederation(t, "stitchA", "stitchB")

	query(t, e,
		"SELECT c.name, SUM(o.amount) FROM cust c JOIN ord o ON c.id = o.cust_id GROUP BY c.name")

	tr := e.TraceLast()
	if tr == nil {
		t.Fatal("TraceLast() = nil")
	}
	ships := tr.Data().FindAll(obs.SpanShip)
	if len(ships) < 2 {
		t.Fatalf("ship spans = %d, want >= 2:\n%s", len(ships), tr.Tree())
	}
	for _, sh := range ships {
		src, _ := sh.Attr("source")
		remote := stitched(sh)
		if remote == nil {
			t.Fatalf("ship span for %s has no stitched remote subtree:\n%s", src, tr.Tree())
		}
		kinds := map[string]bool{}
		for _, c := range remote.Children {
			kinds[c.Kind] = true
		}
		for _, want := range []obs.SpanKind{obs.SpanParse, obs.SpanExec, obs.SpanStream} {
			if !kinds[want.String()] {
				t.Errorf("remote subtree for %s missing %v span:\n%s", src, want, tr.Tree())
			}
		}
		if _, ok := sh.Attr("remote_us"); !ok {
			t.Errorf("ship span for %s lacks remote_us", src)
		}
		if _, ok := sh.Attr("wan_us"); !ok {
			t.Errorf("ship span for %s lacks wan_us", src)
		}
	}
}

// stitched returns the remote subtree stitched under a ship span, its
// last child, or nil.
func stitched(ship *obs.SpanData) *obs.SpanData {
	if n := len(ship.Children); n > 0 && ship.Children[n-1].Kind == obs.SpanRemote.String() {
		return ship.Children[n-1]
	}
	return nil
}

// fourViews is what each rendering of one statement's measured records
// says about it.
type fourViews struct {
	analyzeRows, analyzeWire map[string]int64 // EXPLAIN ANALYZE, by plan line prefix
	execRows, shipRows       map[string]int64 // \trace rows attrs, by span name prefix / source
	logRows                  map[string]int64 // query-log SourceIO.Rows, by source
	rowsOut                  int64            // query-log rows_out
	// The planner's estimate, where a node has one: est= in EXPLAIN
	// ANALYZE and est_rows on the exec span, keyed as analyzeRows is.
	analyzeEst, execEst map[string]int64
	// The fifth view, the remote-vs-WAN split: how many ship spans had a
	// remote subtree stitched in. Each one's duration is the log record's
	// remote_us, and ship_us less it the record's wan_us.
	stitched int
}

// runFourViews executes q once, through EXPLAIN ANALYZE on a traced
// engine with a sample-everything query log, and reads that one
// execution back from the four places it is rendered: the annotated
// plan, the trace's exec spans, its ship spans, the log record.
func runFourViews(t *testing.T, e *Engine, q string) (fourViews, string) {
	t.Helper()
	var logged strings.Builder
	e.Queries().SetStructured(obs.NewStructuredLog(&logged, 1, nil))
	out, err := e.ExplainAnalyze(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	v := fourViews{
		analyzeRows: map[string]int64{}, analyzeWire: map[string]int64{},
		execRows: map[string]int64{}, shipRows: map[string]int64{},
		logRows: map[string]int64{}, analyzeEst: map[string]int64{}, execEst: map[string]int64{},
	}
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("not a number: %q", s)
		}
		return n
	}
	line := regexp.MustCompile(`^\s*(\S+ \S+).*\(rows=(\d+)(?: est=(\d+))? bytes=\d+ time=\S+?(?: close=\S+?)?(?: wire_rows=(\d+) wire_bytes=\d+)?\)$`)
	for _, l := range strings.Split(out, "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			v.analyzeRows[m[1]] += atoi(m[2])
			if m[3] != "" {
				v.analyzeEst[m[1]] = atoi(m[3])
			}
			if m[4] != "" {
				v.analyzeWire[m[1]] += atoi(m[4])
			}
		}
	}
	tr := e.TraceLast()
	root := tr.Data()
	for _, sp := range root.FindAll(obs.SpanExec) {
		rows, ok := sp.Attr("rows")
		if !ok {
			continue // a component's own exec span, stitched in
		}
		f := strings.Fields(sp.Name)
		node := f[0] + " " + f[1]
		v.execRows[node] += atoi(rows)
		if est, ok := sp.Attr("est_rows"); ok {
			v.execEst[node] = atoi(est)
		}
	}
	ships := root.FindAll(obs.SpanShip)
	for _, sp := range ships {
		src, _ := sp.Attr("source")
		rows, _ := sp.Attr("rows")
		v.shipRows[src] += atoi(rows)
	}
	var rec obs.QueryLogRecord
	if err := json.Unmarshal([]byte(logged.String()), &rec); err != nil {
		t.Fatalf("query log line: %v\n%s", err, logged.String())
	}
	if rec.TraceID != tr.ID() {
		t.Fatalf("log record is of trace %s, \\trace shows %s", rec.TraceID, tr.ID())
	}
	v.rowsOut = rec.RowsOut
	for _, s := range rec.Sources {
		v.logRows[s.Source] += s.Rows
	}
	if len(rec.Sources) != len(ships) {
		t.Fatalf("log record has %d sources, the trace %d ship spans", len(rec.Sources), len(ships))
	}
	for i, sh := range ships {
		s := rec.Sources[i]
		var remote, wan int64
		if r := stitched(sh); r != nil {
			v.stitched++
			remote, wan = r.DurationUS, s.ShipUS-r.DurationUS
		}
		if s.ShipUS != sh.DurationUS || s.RemoteUS != remote || s.WanUS != wan {
			t.Errorf("source %s: log ship_us %d, remote_us %d, wan_us %d; trace ship span %d µs, stitched remote root %d µs",
				s.Source, s.ShipUS, s.RemoteUS, s.WanUS, sh.DurationUS, remote)
		}
	}
	return v, out + tr.Tree()
}

// TestFourViewsAgree: EXPLAIN ANALYZE, the trace tree's exec and ship
// spans and the query-log record render one record per operator
// execution, so for one statement they must report the same numbers —
// and the same estimate beside them, on the nodes the planner estimates.
// A fifth view, the log record's remote-vs-WAN split, must be the
// trace's: the stitched remote root's duration and the rest of the ship
// span.
func TestFourViewsAgree(t *testing.T) {
	t.Run("ship-all join", func(t *testing.T) {
		e := traceFederation(t, "fvA", "fvB")
		e.PlanOptions().ForceStrategy = plan.StrategyShipAll
		v, dump := runFourViews(t, e, "SELECT c.name, o.amount FROM cust c JOIN ord o ON c.id = o.cust_id")
		for _, c := range []struct {
			node, src string
			want      int64
		}{
			{"FragScan fvA.cust", "fvA", 2},
			{"FragScan fvB.ord", "fvB", 3},
		} {
			got := []int64{
				v.analyzeRows[c.node], v.analyzeWire[c.node], v.execRows[c.node],
				v.shipRows[c.src], v.logRows[c.src],
			}
			for i, n := range got {
				if n != c.want {
					t.Errorf("%s: view %d of (analyze rows, analyze wire_rows, exec span, ship span, log source) = %d, want %d", c.node, i, n, c.want)
				}
			}
		}
		join := "Join inner"
		if v.analyzeRows[join] != 3 || v.execRows[join] != 3 || v.rowsOut != 3 {
			t.Errorf("join output: analyze %d, exec span %d, log rows_out %d; want 3 everywhere",
				v.analyzeRows[join], v.execRows[join], v.rowsOut)
		}
		// The two scans and the join are estimated; the project over them
		// is not, and prints no est=.
		if len(v.execEst) != 3 || !maps.Equal(v.analyzeEst, v.execEst) {
			t.Errorf("estimates: EXPLAIN ANALYZE est= %v, exec spans est_rows %v; want the same three", v.analyzeEst, v.execEst)
		}
		if v.stitched != 2 {
			t.Errorf("%d ship spans have a remote subtree stitched in, want both", v.stitched)
		}
		if t.Failed() {
			t.Log(dump)
		}
	})
	// Both branches of the union execute concurrently (check.sh runs this
	// under -race): each branch has its own record, summed at render.
	t.Run("parallel union", func(t *testing.T) {
		e := traceFederation(t, "fvC", "fvD")
		e.PlanOptions().ParallelFragments = true
		v, dump := runFourViews(t, e, "SELECT id, balance FROM acct")
		for _, src := range []string{"fvC", "fvD"} {
			node := "FragScan " + src + ".acct"
			got := []int64{
				v.analyzeRows[node], v.analyzeWire[node], v.execRows[node],
				v.shipRows[src], v.logRows[src],
			}
			for i, n := range got {
				if n != 2 {
					t.Errorf("%s: view %d = %d, want 2", node, i, n)
				}
			}
		}
		if v.rowsOut != 4 {
			t.Errorf("log rows_out = %d, want 4", v.rowsOut)
		}
		if len(v.execEst) != 2 || !maps.Equal(v.analyzeEst, v.execEst) {
			t.Errorf("estimates: EXPLAIN ANALYZE est= %v, exec spans est_rows %v; want the same two", v.analyzeEst, v.execEst)
		}
		if v.stitched != 2 {
			t.Errorf("%d ship spans have a remote subtree stitched in, want both", v.stitched)
		}
		if t.Failed() {
			t.Log(dump)
		}
	})
	// hetero_local's file_topk: the Sort under the Limit says how many
	// rows it keeps, and hands on that many of the 38 it read.
	t.Run("top-k over a file", func(t *testing.T) {
		var data strings.Builder
		for i := 0; i < 90; i++ {
			fmt.Fprintf(&data, "%d,%d.5,%s\n", i, i*37%400, []string{"north", "south", "east"}[i%3])
		}
		schema := types.NewSchema(
			types.Column{Name: "oid", Type: types.KindInt},
			types.Column{Name: "amount", Type: types.KindFloat},
			types.Column{Name: "region", Type: types.KindString},
		)
		files := filestore.New("fvFiles")
		if err := files.RegisterData("orders", data.String(), schema); err != nil {
			t.Fatal(err)
		}
		e := New()
		e.SetTracing(true)
		cat := e.Catalog()
		for _, err := range []error{
			cat.AddSource(files), cat.DefineTable("orders_file", schema),
			cat.MapSimple(ctx, "orders_file", "fvFiles", "orders"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		v, dump := runFourViews(t, e, "SELECT oid, amount FROM orders_file WHERE region <> 'east' AND amount < 250 ORDER BY amount DESC, oid LIMIT 10")
		if !strings.Contains(dump, "Limit 10 (rows=10 ") || !strings.Contains(dump, "Sort amount DESC, oid top 10 (rows=10 ") {
			t.Errorf("EXPLAIN ANALYZE should show the Sort keeping what the Limit reads:\n%s", dump)
		}
		for _, c := range []struct {
			node string
			want int64
		}{{"Limit 10", 10}, {"Sort amount", 10}, {"FragScan fvFiles.orders", 38}} {
			if v.analyzeRows[c.node] != c.want || v.execRows[c.node] != c.want {
				t.Errorf("%s: analyze rows %d, exec span %d; want %d", c.node, v.analyzeRows[c.node], v.execRows[c.node], c.want)
			}
		}
		if v.shipRows["fvFiles"] != 90 || v.logRows["fvFiles"] != 90 || v.rowsOut != 10 {
			t.Errorf("the scan-only source ships its 90 rows and the statement returns 10: ship span %d, log source %d, rows_out %d",
				v.shipRows["fvFiles"], v.logRows["fvFiles"], v.rowsOut)
		}
		if t.Failed() {
			t.Log(dump)
		}
	})
}
