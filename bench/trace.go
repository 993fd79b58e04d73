package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gis/internal/admission"
	"gis/internal/exec"
	"gis/internal/plan"
	"gis/internal/sql"
	"gis/internal/types"
)

// traceFileStmts bounds the trace file: it holds the spans of the
// traced segment's first statements; the per-layer metrics use them all.
const traceFileStmts = 2000

var storeKinds = []string{"relstore", "kvstore", "docstore", "filestore"}

// layerTimes is where one traced statement's time went, in nanoseconds.
// The self times are disjoint, so adding them up gives back the
// statement.
type layerTimes struct {
	wall                          int64
	admit, parse, build, optimize int64
	execSelf, txnSelf             int64    // exec.Collect, or Engine.Exec, less the source calls under it
	wireSelf                      int64    // mediator-side calls on remote sources not covered by the store's own
	scan, write                   [4]int64 // the stores' own time, by storeKinds
	fetch, prepare, commit        int64    // mediator-side unions: all calls, 2PC votes, 2PC decisions
}

func (l *layerTimes) add(o layerTimes) {
	l.wall += o.wall
	l.admit += o.admit
	l.parse += o.parse
	l.build += o.build
	l.optimize += o.optimize
	l.execSelf += o.execSelf
	l.txnSelf += o.txnSelf
	l.wireSelf += o.wireSelf
	l.fetch += o.fetch
	l.prepare += o.prepare
	l.commit += o.commit
	for k := range l.scan {
		l.scan[k] += o.scan[k]
		l.write[k] += o.write[k]
	}
}

// attributed is the part of the statement the per-layer metrics name.
func (l *layerTimes) attributed() int64 {
	sum := l.admit + l.parse + l.build + l.optimize + l.execSelf + l.txnSelf + l.wireSelf
	for k := range l.scan {
		sum += l.scan[k] + l.write[k]
	}
	return sum
}

// tracedStmt is one statement of the traced pass.
type tracedStmt struct {
	tmpl int
	layerTimes
}

// tracedPass collects the traced segment.
type tracedPass struct {
	stmts                  []tracedStmt
	calls, rowsIn, rowsOut int64 // exact, over every statement
	// Buffers the analysis of one statement leaves for the next, so that
	// it makes no garbage for the next measured statement to collect.
	ivals                        []interval
	union, medRemote, compRemote [][2]int64
}

// tracedExec runs statements staged the way Engine.Query composes them
// — admit, sql.Parse, BuildSelect, Optimize, exec.Collect, release —
// with a span around each public call. Writes go through Engine.Exec
// whole; the decorators supply what happens inside.
func tracedExec(f *fixture, rec *recorder, pass *tracedPass) execFn {
	cat := f.eng.Catalog()
	return func(ctx context.Context, t *template, s stmt) (rows []types.Row, n int64, err error) {
		rec.beginStmt(len(pass.stmts), len(pass.stmts) < traceFileStmts, pass.ivals)
		lt := layerTimes{}
		var collect, call int64
		lt.wall = rec.timeStage("core.statement", func() {
			if t.write {
				call = rec.timeStage("core.exec", func() { n, err = f.eng.Exec(ctx, t.sql, s.params...) })
				return
			}
			var sess *admission.Session
			actx := ctx
			lt.admit = rec.timeStage("admission.admit", func() { actx, sess, err = f.admit.Admit(ctx, "") })
			if err != nil {
				return
			}
			var ast sql.Statement
			lt.parse = rec.timeStage("sql.parse", func() { ast, err = sql.Parse(t.sql, s.params...) })
			var logical, physical plan.Node
			if err == nil {
				sel, ok := ast.(*sql.SelectStmt)
				if !ok {
					err = fmt.Errorf("bench: template %s is not a SELECT", t.name)
				} else {
					lt.build = rec.timeStage("plan.build", func() { logical, err = plan.NewBuilder(cat).BuildSelect(sel) })
				}
			}
			if err == nil {
				lt.optimize = rec.timeStage("plan.optimize", func() { physical, err = plan.Optimize(actx, logical, cat, f.eng.PlanOptions()) })
			}
			if err == nil {
				collect = rec.timeStage("exec.collect", func() { rows, err = exec.Collect(actx, physical) })
				n = int64(len(rows))
			}
			lt.admit += rec.timeStage("admission.release", sess.Release)
		})

		ivals, calls, rowsIn := rec.endStmt()
		pass.ivals = ivals
		pass.calls += calls
		pass.rowsIn += rowsIn
		length := func(keep func(interval) bool) int64 {
			pass.union = merged(pass.union, ivals, keep)
			return lengthNS(pass.union)
		}
		pass.medRemote = merged(pass.medRemote, ivals, func(iv interval) bool { return iv.side == mediatorSide && iv.remote })
		pass.compRemote = merged(pass.compRemote, ivals, func(iv interval) bool { return iv.side == componentSide && iv.remote })
		lt.fetch = length(func(iv interval) bool { return iv.side == mediatorSide })
		lt.wireSelf = lengthNS(pass.medRemote) - overlapNS(pass.medRemote, pass.compRemote)
		if t.write {
			lt.txnSelf = call - lt.fetch
		} else {
			lt.execSelf = collect - lt.fetch
			pass.rowsOut += n
		}
		lt.prepare = length(func(iv interval) bool { return iv.side == mediatorSide && iv.op == opPrepare })
		lt.commit = length(func(iv interval) bool { return iv.side == mediatorSide && iv.op == opCommit })
		// A store's own time is what its component-side decorator saw,
		// or the mediator-side one when the store is local.
		for k := range storeKinds {
			atStore := func(iv interval) bool { return int(iv.kind) == k && (iv.side == componentSide || !iv.remote) }
			lt.scan[k] = length(func(iv interval) bool { return atStore(iv) && iv.op == opRead })
			lt.write[k] = length(func(iv interval) bool { return atStore(iv) && iv.op != opRead })
		}
		pass.stmts = append(pass.stmts, tracedStmt{s.tmpl, lt})
		return rows, n, err
	}
}

// undisturbed adds up the statements whose wall time is at or below
// their template's median — the half the hypervisor left alone (see
// README.md, "Why no timing carries a bound") — and returns the sum with the
// number of statements in it. Means over that half repeat between runs;
// means over every statement follow the machine's stalls, which land
// mostly in whichever layer was waiting.
func (p *tracedPass) undisturbed(templates int) (layerTimes, int) {
	walls := make([][]float64, templates)
	for _, s := range p.stmts {
		walls[s.tmpl] = append(walls[s.tmpl], float64(s.wall))
	}
	medians := make([]float64, templates)
	for t, xs := range walls {
		medians[t] = percentile(xs, 0.50)
	}
	var sum layerTimes
	n := 0
	for _, s := range p.stmts {
		if float64(s.wall) <= medians[s.tmpl] {
			sum.add(s.layerTimes)
			n++
		}
	}
	return sum, n
}

// explainAll renders the optimized plan of one statement per read
// template.
func explainAll(ctx context.Context, c runConfig, f *fixture, samples []stmt) (map[string]string, error) {
	out := map[string]string{}
	for _, s := range samples {
		t := c.w.templates[s.tmpl]
		if t.write {
			continue
		}
		p, err := f.eng.Explain(ctx, t.sql, s.params...)
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", t.name, err)
		}
		out[t.name] = p
	}
	return out, nil
}

// runTraced is the traced run. An undecorated federation first runs the
// first segment untraced (the reference for the tracing overhead and
// the core.* metrics) and a second one with the engine's own tracing on;
// a decorated federation then runs the first segment's statements
// staged, after checking that decorating changed no plan.
func runTraced(ctx context.Context, c runConfig, report *strings.Builder) (result, error) {
	fl := &failureLog{}
	n := c.segmentSize()
	values := map[string]float64{}

	plain, err := setUp(ctx, c, nil)
	if err != nil {
		return result{}, err
	}
	failed := warmUp(ctx, c, plain, fl)
	ref := runSegment(ctx, c, plain, engineExec(plain), n, 0, fl)
	plansBefore, err := explainAll(ctx, c, plain, ref.samples)
	if err != nil {
		plain.close()
		return result{}, err
	}
	plain.eng.SetTracing(true)
	obsOn := runSegment(ctx, c, plain, engineExec(plain), n, n, fl)
	plain.close()

	rec := newRecorder()
	traced, err := setUp(ctx, c, rec)
	if err != nil {
		return result{}, err
	}
	defer traced.close()
	failed += warmUp(ctx, c, traced, fl)
	plansAfter, err := explainAll(ctx, c, traced, ref.samples)
	if err != nil {
		return result{}, err
	}
	for name, before := range plansBefore {
		if after := plansAfter[name]; after != before {
			return result{}, fmt.Errorf("%s/%s: the decorated federation plans differently:\n--- undecorated\n%s--- decorated\n%s",
				c.w.name, name, before, after)
		}
	}
	pass := &tracedPass{}
	in0, out0, frames0 := wireCounters(traced)
	seg := runSegment(ctx, c, traced, tracedExec(traced, rec, pass), n, 0, fl)
	in1, out1, frames1 := wireCounters(traced)

	sum, kept := pass.undisturbed(len(c.w.templates))
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(kept) }
	count := func(v int64) float64 { return float64(v) / float64(len(pass.stmts)) }
	values["sql.parse_us"] = per(sum.parse)
	values["plan.build_us"] = per(sum.build)
	values["plan.optimize_us"] = per(sum.optimize)
	values["exec.self_us"] = per(sum.execSelf)
	values["exec.rows_in_per_row_out"] = float64(pass.rowsIn) / float64(max(pass.rowsOut, 1))
	values["source.fetch_us"] = per(sum.fetch)
	values["source.calls_per_stmt"] = count(pass.calls)
	values["source.rows_per_stmt"] = count(pass.rowsIn)
	values["wire.self_us"] = per(sum.wireSelf)
	values["wire.frames_per_stmt"] = count(frames1 - frames0)
	values["wire.bytes_in_per_stmt"] = count(in1 - in0)
	values["wire.bytes_out_per_stmt"] = count(out1 - out0)
	for k, kind := range storeKinds {
		values[kind+".scan_us"] = per(sum.scan[k])
	}
	values["relstore.write_us"] = per(sum.write[0])
	values["txn.prepare_us"] = per(sum.prepare)
	values["txn.commit_us"] = per(sum.commit)
	values["txn.self_us"] = per(sum.txnSelf)
	values["trace.coverage_frac"] = float64(sum.attributed()) / float64(sum.wall)

	// What tracing cost: the traced pass's own wall times, reduced the
	// way core.latency_p10_ms is, against the untraced pass's.
	stagedMS := make([][]float64, len(c.w.templates))
	for _, s := range pass.stmts {
		stagedMS[s.tmpl] = append(stagedMS[s.tmpl], float64(s.wall)/1e6)
	}
	untraced, withObs := summarize([]segmentResult{ref}), summarize([]segmentResult{obsOn})
	values["trace.overhead_frac"] = templateLow(stagedMS)/untraced.wallLow - 1
	values["obs.tracing_on_slowdown"] = withObs.wallLow / untraced.wallLow
	values["core.latency_p10_ms"] = untraced.wallLow
	values["core.cpu_p10_ms"] = untraced.cpuLow
	values["core.queries_per_s"] = untraced.qps
	values["core.latency_p50_ms"] = untraced.p50
	values["core.latency_p95_ms"] = untraced.p95
	values["core.cpu_ms_per_query"] = untraced.cpuMean
	values["core.latency_p99_ms"] = untraced.p99
	values["core.wire_bytes_per_query"] = untraced.wireBytes
	attempted := 2*c.warmUp() + ref.n + obsOn.n + seg.n
	failed += ref.failed + obsOn.failed + seg.failed
	values["core.error_frac"] = float64(failed) / float64(attempted)
	for ti, t := range c.w.templates {
		values[templateMetric(c.w.name, t.name)] = untraced.tmplP50[ti]
	}
	for name, v := range runProbes(ctx, c.z) {
		values[name] = v
	}

	if err := writeTrace(c, rec, len(pass.stmts)); err != nil {
		return result{}, err
	}
	fmt.Fprintf(report, "%s  seed=%d  traced run: %d statements staged through decorated sources (layer times are means over the %d at or below their template's median), %d untraced for reference\n",
		c.w.name, c.seed, len(pass.stmts), kept, ref.n)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer() {
		// Another workload's template has no value here: it is reported
		// as 0 and gets no line.
		v, measured := values[d.Name]
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		if measured {
			fmt.Fprintf(report, "  %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	return res, nil
}

// writeTrace writes the kept spans to <outDir>/trace-<workload>.json.
func writeTrace(c runConfig, rec *recorder, stmts int) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Statements int    `json:"statements"`
		Kept       int    `json:"statements_with_spans"`
		Spans      []span `json:"spans"`
	}{c.w.name, c.seed, stmts, min(stmts, traceFileStmts), rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.outDir, "trace-"+c.w.name+".json"), data, 0o644)
}
