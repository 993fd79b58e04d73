package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"gis/internal/obs"
	"gis/internal/types"
)

const (
	// segments is how many equal statement batches the measured window
	// is cut into. The traced run works on the first one.
	segments = 5
	// minSegment keeps the window at 400 statements or more, so p95 of
	// the window has twenty samples beyond it on every workload.
	minSegment = 80
	// A run builds its federation from scratch minSetups times or more,
	// until setupBudget has gone into building or maxSetups are done: the
	// cheap set-ups, whose single timings vary most, are repeated most.
	// setup_s is the fastest build, heap_after_setup_mb the smallest heap
	// (noise only ever adds to either); the last build is the one the
	// statements run against.
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 3 * time.Second
	// lowQuantile is the quantile of the most repeatable timing figures,
	// core.latency_p10_ms and core.cpu_p10_ms; see README.md, "Why no
	// timing carries a bound".
	lowQuantile = 0.10
)

// runConfig is one invocation's inputs.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	z       sizes
	outDir  string // where the traced run writes its span file
}

// segmentSize is the statement count of one segment: sized from the
// workload's calibrated rate so the measured window lasts about
// -seconds on the machine the rates were taken on, and fixed from then
// on — the statement sequence is a pure function of the seed, so both
// sides of a comparison execute the same statements and draw the same
// percentiles from the same number of samples.
func (c runConfig) segmentSize() int {
	n := int(c.w.perSecond*float64(c.seconds)/segments*float64(c.z) + 0.5)
	if c.z >= 1 {
		return max(n, minSegment)
	}
	return max(n, 2*len(c.w.templates))
}

func (c runConfig) warmUp() int { return max(c.segmentSize()/10, len(c.w.templates)) }

// execFn runs one statement and returns its rows (reads) or affected
// count (writes).
type execFn func(ctx context.Context, t *template, s stmt) ([]types.Row, int64, error)

// engineExec is the measured path: the public Engine API, as a client
// library would call it.
func engineExec(f *fixture) execFn {
	return func(ctx context.Context, t *template, s stmt) ([]types.Row, int64, error) {
		if t.write {
			n, err := f.eng.Exec(ctx, t.sql, s.params...)
			return nil, n, err
		}
		res, err := f.eng.Query(ctx, t.sql, s.params...)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, int64(len(res.Rows)), nil
	}
}

// segmentResult is what one batch of statements measured.
type segmentResult struct {
	n         int
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	wireBytes int64
	// Per template, per statement: wall time and the process's CPU time
	// (every thread: the in-process component servers included) while
	// the statement ran.
	wallMS, cpuMS [][]float64
	samples       []stmt // the first statement of each template
	failed        int
}

// failureLog prints the first few failed statements; a run with any is
// reported incorrect and exits non-zero.
type failureLog struct{ shown int }

func (l *failureLog) add(w *workload, s stmt, err error) {
	if l.shown++; l.shown <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s/%s %v: %v\n", w.name, w.templates[s.tmpl].name, s.params, err)
	}
}

// runSegment executes n statements in a closed loop with one client and
// checks every answer: the row count inline, the full answers after the
// clock has stopped.
func runSegment(ctx context.Context, c runConfig, f *fixture, exec execFn, n int, first int, fl *failureLog) segmentResult {
	stmts := make([]stmt, n)
	for i := range stmts {
		stmts[i] = f.gen.next()
	}
	nt := len(c.w.templates)
	res := segmentResult{n: n, wallMS: make([][]float64, nt), cpuMS: make([][]float64, nt)}
	type pending struct {
		i    int
		rows []types.Row
	}
	var full []pending

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := wireBytes(f)
	c0 := processCPU()
	t0 := time.Now()
	for i, s := range stmts {
		t := &c.w.templates[s.tmpl]
		q0, qc0 := time.Now(), processCPU()
		rows, got, err := exec(ctx, t, s)
		wall, cpu := time.Since(q0), processCPU()-qc0
		if len(res.wallMS[s.tmpl]) == 0 {
			res.samples = append(res.samples, s)
		}
		res.wallMS[s.tmpl] = append(res.wallMS[s.tmpl], float64(wall)/1e6)
		res.cpuMS[s.tmpl] = append(res.cpuMS[s.tmpl], float64(cpu)/1e6)
		if err == nil {
			err = checkCount(s, got)
		}
		if err != nil {
			res.failed++
			fl.add(c.w, s, err)
			continue
		}
		if s.full != nil && (s.always || (first+i)%fullCheckEvery == 0) {
			full = append(full, pending{i, rows})
		}
	}
	res.wall = time.Since(t0)
	res.cpu = processCPU() - c0
	res.wireBytes = wireBytes(f) - w0
	runtime.ReadMemStats(&m1)
	res.mallocs, res.allocated = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	for _, p := range full {
		s := stmts[p.i]
		if err := checkFull(s, c.w.templates[s.tmpl].ordered, p.rows); err != nil {
			res.failed++
			fl.add(c.w, s, err)
		}
	}
	return res
}

// wireBytes sums the mediator-side link counters of the fixture's
// remote sources, both directions.
func wireBytes(f *fixture) int64 {
	if len(f.remotes) == 0 {
		return 0
	}
	in, out, _ := wireCounters(f)
	return in + out
}

func wireCounters(f *fixture) (bytesIn, bytesOut, frames int64) {
	snap := obs.Default().Snapshot().Counters
	for _, name := range f.remotes {
		p := "wire.client." + name + "."
		bytesIn += snap[p+"bytes_in"]
		bytesOut += snap[p+"bytes_out"]
		frames += snap[p+"frames_in"] + snap[p+"frames_out"]
	}
	return bytesIn, bytesOut, frames
}

// windowStats summarises a window of one or more segments.
type windowStats struct {
	n, failed int
	// The robust timing figures: the low quantile of each template's
	// statements, averaged over the templates so that a regression in
	// any statement class moves them.
	wallLow, cpuLow float64
	// The usual ones, which on a machine whose hypervisor withholds the
	// CPU in bursts vary too much between runs to carry a bound.
	qps, qpsQ1, qpsQ3     float64 // median and quartiles over segments
	meanMS, p50, p95, p99 float64 // over the whole window
	cpuMean               float64 // ms per statement
	allocs, allocKB       float64
	wireBytes             float64
	tmplP50               []float64
}

func summarize(segs []segmentResult) windowStats {
	var ws windowStats
	var qps, all []float64
	var cpu time.Duration
	var mallocs, allocated uint64
	var wire int64
	nt := len(segs[0].wallMS)
	wallBy, cpuBy := make([][]float64, nt), make([][]float64, nt)
	for _, s := range segs {
		ws.n += s.n
		ws.failed += s.failed
		qps = append(qps, float64(s.n-s.failed)/s.wall.Seconds())
		cpu += s.cpu
		mallocs += s.mallocs
		allocated += s.allocated
		wire += s.wireBytes
		for t := 0; t < nt; t++ {
			wallBy[t] = append(wallBy[t], s.wallMS[t]...)
			cpuBy[t] = append(cpuBy[t], s.cpuMS[t]...)
			all = append(all, s.wallMS[t]...)
		}
	}
	per := float64(ws.n)
	ws.wallLow, ws.cpuLow = templateLow(wallBy), templateLow(cpuBy)
	for t := 0; t < nt; t++ {
		ws.tmplP50 = append(ws.tmplP50, percentile(wallBy[t], 0.50))
	}
	ws.qpsQ1, ws.qps, ws.qpsQ3 = quartiles(qps)
	ws.meanMS = mean(all)
	ws.p50, ws.p95, ws.p99 = percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99)
	ws.cpuMean = float64(cpu) / 1e6 / per
	ws.allocs = float64(mallocs) / per
	ws.allocKB = float64(allocated) / 1024 / per
	ws.wireBytes = float64(wire) / per
	return ws
}

// templateLow is the low quantile of each template's samples, averaged
// over the templates.
func templateLow(byTemplate [][]float64) float64 {
	sum := 0.0
	for _, xs := range byTemplate {
		sum += percentile(xs, lowQuantile)
	}
	return sum / float64(len(byTemplate))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// setUp builds the workload's federation: generate from the seed, load,
// index, Analyze, dial.
func setUp(ctx context.Context, c runConfig, rec *recorder) (*fixture, error) {
	f, err := c.w.build(ctx, rec, c.seed, c.z)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("set-up of %s: %w", c.w.name, err)
	}
	return f, nil
}

// warmUp runs a tenth of a segment's statements — connection pools
// dialled, heap grown to its working size — checked like any other, and
// returns how many failed.
func warmUp(ctx context.Context, c runConfig, f *fixture, fl *failureLog) int {
	return runSegment(ctx, c, f, engineExec(f), c.warmUp(), 0, fl).failed
}

// result is a run's outcome in the shape the benchmark contract prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runEndToEnd is the untraced run: set up, then the measured segments
// through the public Engine API, reporting every end-to-end metric.
func runEndToEnd(ctx context.Context, c runConfig, report *strings.Builder) (result, error) {
	fl := &failureLog{}
	var f *fixture
	setupS, heapMB := math.Inf(1), math.Inf(1)
	builds := 0
	budget := time.Duration(float64(setupBudget) * float64(c.z))
	for spent := time.Duration(0); builds < minSetups || (builds < maxSetups && spent < budget); builds++ {
		if f != nil {
			f.close()
		}
		// The previous federation's garbage is not this set-up's work.
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = setUp(ctx, c, nil); err != nil {
			return result{}, err
		}
		took := time.Since(t0)
		spent += took
		setupS = min(setupS, took.Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = min(heapMB, float64(ms.HeapAlloc)/1e6)
	}
	defer f.close()
	failed := warmUp(ctx, c, f, fl)

	n := c.segmentSize()
	exec := engineExec(f)
	var segs []segmentResult
	for k := 0; k < segments; k++ {
		segs = append(segs, runSegment(ctx, c, f, exec, n, k*n, fl))
	}
	ws := summarize(segs)
	failed += ws.failed
	values := map[string]float64{
		"setup_s":             setupS,
		"allocs_per_query":    ws.allocs,
		"alloc_kb_per_query":  ws.allocKB,
		"heap_after_setup_mb": heapMB,
	}

	fmt.Fprintf(report, "%s  seed=%d  %d set-ups, %d segments x %d statements, one closed-loop client, GOMAXPROCS=%d of %d CPUs\n",
		c.w.name, c.seed, builds, segments, n, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res := result{Correct: failed == 0, Attempted: c.warmUp() + ws.n, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		fmt.Fprintf(report, "  %-20s %14.4f %-6s %s is better, regression bound %g\n", d.Name, values[d.Name], d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintf(report, "not bounded (the traced run reports them as core.*): per-template p10 latency %.4f ms and process CPU %.4f ms, %.1f statements/s (segment quartiles %.1f .. %.1f), latency p50 %.4f ms, p95 %.4f ms (%d samples beyond it), %.4f CPU-ms per statement\n",
		ws.wallLow, ws.cpuLow, ws.qps, ws.qpsQ1, ws.qpsQ3, ws.p50, ws.p95, ws.n/20, ws.cpuMean)
	return res, nil
}
