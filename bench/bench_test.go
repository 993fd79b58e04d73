package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// testScale is the 1/100 configuration: hundreds of rows, a few
// statements per segment.
const testScale sizes = 0.01

func testConfig(t *testing.T, w *workload) runConfig {
	return runConfig{w: w, seed: 7, seconds: defaultSeconds, z: testScale, outDir: t.TempDir()}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// checkMetrics requires exactly the listed names, each with its unit.
func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the output", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("output has %d metrics, %d are listed", len(res.Metrics), len(defs))
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var report strings.Builder
			res, err := runEndToEnd(context.Background(), testConfig(t, w), &report)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d; want a clean run", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			c := testConfig(t, w)
			var report strings.Builder
			res, err := runTraced(context.Background(), c, &report)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d; want a clean run", res.Correct, res.Failed)
			}
			checkMetrics(t, res, perLayer())
			if w.name == "hetero_local" {
				for _, name := range []string{"wire.self_us", "wire.frames_per_stmt", "wire.bytes_in_per_stmt", "wire.bytes_out_per_stmt"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v on a workload with no wire; want 0", name, v)
					}
				}
			}
			for _, tm := range w.templates {
				if v := res.Metrics[templateMetric(w.name, tm.name)].Value; v <= 0 {
					t.Errorf("template %s has no latency", tm.name)
				}
			}
			data, err := os.ReadFile(filepath.Join(c.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, sp := range file.Spans {
				seen[sp.Name] = true
				if sp.EndNS < sp.StartNS {
					t.Fatalf("span %s ends before it starts", sp.Name)
				}
			}
			want := []string{"core.statement", "sql.parse", "plan.build", "plan.optimize", "exec.collect", "source.execute", "source.stream"}
			if w.name == "update_2pc" {
				want = append(want, "core.exec", "source.insert", "source.prepare", "source.commit", "relstore.update", "relstore.commit")
			}
			if w.name != "hetero_local" {
				want = append(want, "relstore.execute", "relstore.stream")
			}
			for _, name := range want {
				if !seen[name] {
					t.Errorf("trace file has no %s span", name)
				}
			}
		})
	}
}

// corruptGen spoils the oracle's expectation of one statement.
type corruptGen struct {
	in      generator
	i, at   int
	corrupt func(*stmt)
}

func (g *corruptGen) next() stmt {
	s := g.in.next()
	if g.i == g.at {
		g.corrupt(&s)
	}
	g.i++
	return s
}

// TestCorruptedOracleFailsRun is the check on the checker: one wrong
// expected row count, or one wrong cell of a full answer, must make the
// run incorrect.
func TestCorruptedOracleFailsRun(t *testing.T) {
	cases := map[string]func(*stmt){
		"row count": func(s *stmt) { s.want++ },
		"one cell": func(s *stmt) {
			full := s.full
			s.always = true
			s.full = func() [][]any {
				rows := full()
				rows[0][len(rows[0])-1] = 12345.25
				return rows
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			base, _ := workloadByName("point_remote")
			w := *base
			w.build = func(ctx context.Context, rec *recorder, seed int64, z sizes) (*fixture, error) {
				f, err := base.build(ctx, rec, seed, z)
				// Statement 40 is a pk_lookup of the last set-up's measured window.
				f.gen = &corruptGen{in: f.gen, at: 40, corrupt: corrupt}
				return f, err
			}
			var report strings.Builder
			res, err := runEndToEnd(context.Background(), testConfig(t, &w), &report)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("correct=%v failed=%d after corrupting the oracle; the run must fail", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %v\n package %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n file    %v\n package %v", names(file.PerLayer), names(perLayer()))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 {
			t.Errorf("metric name %s is longer than 64 characters", d.Name)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for p, want := range map[float64]float64{0.50: 5, 0.90: 9, 0.95: 10, 0.10: 1} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{16, 1, 4, 2, 8})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestIntervalUnionAndOverlap(t *testing.T) {
	iv := func(s, e int64, sd side) interval { return interval{start: s, end: e, side: sd} }
	ivals := []interval{
		iv(10, 20, mediatorSide), iv(15, 30, mediatorSide), // overlap: one piece 10..30
		iv(40, 50, mediatorSide), iv(50, 55, mediatorSide), // touching: one piece 40..55
		iv(70, 70, mediatorSide), // empty
		iv(12, 18, componentSide), iv(28, 45, componentSide), iv(60, 65, componentSide),
	}
	med := merged(nil, ivals, func(i interval) bool { return i.side == mediatorSide })
	if want := [][2]int64{{10, 30}, {40, 55}}; !reflect.DeepEqual(med, want) {
		t.Fatalf("merged = %v, want %v", med, want)
	}
	if got := lengthNS(med); got != 35 {
		t.Errorf("length = %d, want 35", got)
	}
	comp := merged(nil, ivals, func(i interval) bool { return i.side == componentSide })
	// 12..18 and 28..30 inside the first piece, 40..45 inside the second.
	if got := overlapNS(med, comp); got != 6+2+5 {
		t.Errorf("overlap = %d, want 13", got)
	}
	if got := overlapNS(med, nil); got != 0 {
		t.Errorf("overlap with nothing = %d", got)
	}
}

// TestDecoratorKeepsFacets: the decorated source offers the Writer,
// Transactional and statistics facets exactly when the source does.
func TestDecoratorKeepsFacets(t *testing.T) {
	rec := newRecorder()
	fs := filestore.New("f")
	if err := fs.RegisterData("t", "1,2\n", accountsSchema); err != nil {
		t.Fatal(err)
	}
	rs := relstore.New("r")
	if err := relTable(context.Background(), rs, "t", accountsSchema, nil); err != nil {
		t.Fatal(err)
	}
	type statser interface {
		Stats(string) (*stats.TableStats, error)
	}
	for _, c := range []struct {
		src           source.Source
		writer, txner bool
	}{{rs, true, true}, {kvstore.New("k"), true, false}, {fs, false, false}} {
		d := rec.wrap(c.src, mediatorSide, "x", false)
		if _, ok := d.(source.Writer); ok != c.writer {
			t.Errorf("%s decorated: Writer = %v, want %v", c.src.Name(), ok, c.writer)
		}
		if _, ok := d.(source.Transactional); ok != c.txner {
			t.Errorf("%s decorated: Transactional = %v, want %v", c.src.Name(), ok, c.txner)
		}
		if d.Name() != c.src.Name() || d.Capabilities() != c.src.Capabilities() {
			t.Errorf("%s decorated: name or capabilities changed", c.src.Name())
		}
	}
	d := rec.wrap(rs, componentSide, "relstore", true)
	if ts, err := d.(statser).Stats("t"); err != nil || ts == nil {
		t.Errorf("statistics do not pass through the decorator: %v", err)
	}
	if _, err := rec.wrap(fs, mediatorSide, "filestore", false).(statser).Stats("t"); err == nil {
		t.Error("a source without statistics must say so through the decorator")
	}
}

// TestLateStreamIsDropped: a row stream still reporting after its
// statement ended (a server draining what the mediator closed early)
// is charged to no statement, least of all the next one.
func TestLateStreamIsDropped(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	rs := relstore.New("r")
	if err := relTable(ctx, rs, "t", accountsSchema, []types.Row{
		{types.NewInt(1), types.NewFloat(1)}, {types.NewInt(2), types.NewFloat(2)}}); err != nil {
		t.Fatal(err)
	}
	d := rec.wrap(rs, componentSide, "relstore", true)

	rec.beginStmt(0, true, nil)
	it, err := d.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if ivals, _, _ := rec.endStmt(); len(ivals) != 1 {
		t.Fatalf("statement 0 recorded %d calls, want the Execute alone (its stream has not reported)", len(ivals))
	}

	rec.beginStmt(1, true, nil)
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	it2, err := d.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	if err := it2.Close(); err != nil {
		t.Fatal(err)
	}
	// Statement 1's own Execute and Close, nothing of statement 0's stream.
	if ivals, _, _ := rec.endStmt(); len(ivals) != 2 {
		t.Errorf("statement 1 recorded %d calls, want 2", len(ivals))
	}
	for _, sp := range rec.spans {
		if sp.Name == "relstore.stream" && sp.Stmt == 0 {
			t.Error("the late stream's span was kept")
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	run := func(workload string, seconds int, v float64) runRecord {
		ms := map[string]metricValue{}
		for _, d := range endToEnd {
			ms[d.Name] = metricValue{1, d.Unit}
		}
		ms["setup_s"] = metricValue{v, "s"}
		return runRecord{Workload: workload, Seconds: seconds, Result: result{Correct: true, Attempted: 1, Metrics: ms}}
	}
	write := func(name string, recs ...runRecord) string {
		path := filepath.Join(dir, name)
		for _, rec := range recs {
			if err := appendRun(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	runs := func(vs ...float64) []runRecord {
		var out []runRecord
		for _, v := range vs {
			out = append(out, run("point_remote", 10, v))
		}
		return out
	}
	base := write("a.jsonl", runs(1.000, 1.010, 0.990, 1.005, 0.995)...)
	for _, c := range []struct {
		name      string
		ms        []float64
		verdict   string
		regressed bool
	}{
		{"same.jsonl", []float64{1.001, 1.011, 0.991, 1.004, 0.996}, "ok", false},
		{"slow.jsonl", []float64{1.40, 1.41, 1.39, 1.42, 1.38}, "regressed", true},
		{"noisy.jsonl", []float64{0.6, 1.4, 1.0, 0.8, 1.2}, "unresolved", false},
		{"fast.jsonl", []float64{0.5, 0.9, 0.7, 0.4, 0.6}, "ok", false}, // wide, but every run beats every run of a
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, base, write(c.name, runs(c.ms...)...))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), "setup_s") || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: regressed=%v, output:\n%swant verdict %q, regressed=%v", c.name, regressed, out.String(), c.verdict, c.regressed)
		}
	}

	// What cannot be compared is an error, on whichever side it is.
	failedRun := run("point_remote", 10, 1)
	failedRun.Result.Correct, failedRun.Result.Failed = false, 3
	noMetric := run("point_remote", 10, 1)
	delete(noMetric.Result.Metrics, "allocs_per_query")
	for _, c := range []struct {
		name string
		recs []runRecord
		want string
	}{
		{"incorrect.jsonl", append(runs(1, 1), failedRun), "failed its correctness check"},
		{"onesided.jsonl", append(runs(1, 1), run("ship_remote", 10, 1)), "only one of"},
		{"seconds.jsonl", []runRecord{run("point_remote", 5, 1), run("point_remote", 5, 1)}, "-seconds"},
		{"mixed.jsonl", []runRecord{run("point_remote", 10, 1), run("point_remote", 5, 1)}, "-seconds"},
		{"nometric.jsonl", []runRecord{noMetric, noMetric}, "allocs_per_query is missing"},
		{"unknown.jsonl", append(runs(1, 1), run("no_such_workload", 10, 1)), "unknown workload"},
	} {
		other := write(c.name, c.recs...)
		for _, pair := range [][2]string{{base, other}, {other, base}} {
			var out strings.Builder
			_, err := compareFiles(&out, pair[0], pair[1])
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
			}
		}
	}
}
