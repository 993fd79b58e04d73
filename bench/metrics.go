package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// definitions; the package test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a caller of the mediator sees, the same names on
// every workload, each steady enough between runs of one commit to
// carry a bound — which on the machine this was built on no timing is
// (README.md, "Why no timing carries a bound"); setup_s is here because
// the benchmark contract requires it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.02},
	{"alloc_kb_per_query", "KiB", "lower", 0.02},
	{"heap_after_setup_mb", "MB", "lower", 0.03},
}

// layerDefs are the per-layer metrics that do not depend on the
// workload list; perLayer appends one p50 per statement template.
var layerDefs = []metricDef{
	// Traced run, mean per statement of the traced segment.
	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "plan.optimize_us", Unit: "us", Better: "lower"},
	{Name: "exec.self_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "source.fetch_us", Unit: "us", Better: "lower"},
	{Name: "source.calls_per_stmt", Unit: "count", Better: "lower"},
	{Name: "source.rows_per_stmt", Unit: "count", Better: "lower"},
	{Name: "wire.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.frames_per_stmt", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_in_per_stmt", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_out_per_stmt", Unit: "B", Better: "lower"},
	{Name: "relstore.scan_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.scan_us", Unit: "us", Better: "lower"},
	{Name: "docstore.scan_us", Unit: "us", Better: "lower"},
	{Name: "filestore.scan_us", Unit: "us", Better: "lower"},
	{Name: "relstore.write_us", Unit: "us", Better: "lower"},
	{Name: "txn.prepare_us", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower"},
	{Name: "txn.self_us", Unit: "us", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	// Untraced segment of the traced run. The first six are the
	// end-to-end timings a two-sets-of-runs check cannot hold to a bound
	// on a machine whose hypervisor withholds a changing share of the CPU.
	{Name: "core.latency_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cpu_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "core.queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.error_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.tracing_on_slowdown", Unit: "ratio", Better: "lower"},
	// Probes: one layer's public functions called directly.
	{Name: "types.value_bytes", Unit: "B", Better: "lower"},
	{Name: "types.hash_ns", Unit: "ns", Better: "lower"},
	{Name: "types.compare_ns", Unit: "ns", Better: "lower"},
	{Name: "expr.eval_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "plan.joinorder_dp8_us", Unit: "us", Better: "lower"},
	{Name: "catalog.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wire.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.stream_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "relstore.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relstore.index_lookup_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "kvstore.key_lookup_us", Unit: "us", Better: "lower"},
	{Name: "docstore.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "filestore.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "admission.admit_release_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_off_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_on_ns", Unit: "ns", Better: "lower"},
}

// templateMetric names a statement template's untraced p50. A traced
// run reports 0 for the templates of the other workloads.
func templateMetric(workload, tmpl string) string {
	return "core." + workload + "." + tmpl + "_p50_ms"
}

func perLayer() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, w := range workloads {
		for _, t := range w.templates {
			out = append(out, metricDef{Name: templateMetric(w.name, t.name), Unit: "ms", Better: "lower"})
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile of xs, which it sorts.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method), which is how the benchmark's spreads are judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
