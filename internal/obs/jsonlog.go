package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// StructuredLog emits one JSON object per completed query to a writer
// (the -query-log flag on gisd/gisql). Records carry the normalized
// query fingerprint, the trace id, a per-phase latency breakdown,
// per-source rows/bytes/WAN split, and the resilience outcomes
// (retries, breaker events, partial results) — everything needed to
// correlate a slow federation query across the mediator and its
// component systems without re-running it.
//
// Sampling: a query is logged when the per-query sampling draw hits
// (rate 1 logs everything) OR the query exceeded the slow threshold —
// slow queries are always logged regardless of the rate. The sampling
// decision is drawn once at Begin time so the engine can force tracing
// for exactly the queries that will be logged.
type StructuredLog struct {
	mu          sync.Mutex
	w           io.Writer
	sample      float64
	fingerprint func(string) string
	rngState    uint64
}

// NewStructuredLog returns a structured log writing to w, sampling
// queries with probability sample (clamped to [0,1]; 1 logs every
// query). fingerprint normalizes-and-hashes SQL text for the
// fingerprint field; nil leaves the field empty.
func NewStructuredLog(w io.Writer, sample float64, fingerprint func(string) string) *StructuredLog {
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	// Reuse the trace-id generator for the sampling stream seed: cheap,
	// crypto-seeded, and unique per log instance.
	seed, _ := strconv.ParseUint(newTraceID(), 16, 64)
	return &StructuredLog{w: w, sample: sample, fingerprint: fingerprint, rngState: seed}
}

// SampleHit draws one sampling decision.
func (l *StructuredLog) SampleHit() bool {
	if l == nil {
		return false
	}
	if l.sample >= 1 {
		return true
	}
	if l.sample <= 0 {
		return false
	}
	l.mu.Lock()
	l.rngState += 0x9e3779b97f4a7c15
	z := l.rngState
	l.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < l.sample
}

// SourceIO is the per-source traffic summary in a query-log record,
// extracted from the ship spans of the query's trace.
type SourceIO struct {
	Source   string `json:"source"`
	Rows     int64  `json:"rows"`
	Bytes    int64  `json:"bytes"`
	ShipUS   int64  `json:"ship_us"`
	RemoteUS int64  `json:"remote_us,omitempty"`
	WanUS    int64  `json:"wan_us,omitempty"`
}

// QueryLogRecord is one JSON line in the structured query log.
// scripts/querylogjson validates this schema; keep the two in sync.
type QueryLogRecord struct {
	Time        string           `json:"time"`
	Fingerprint string           `json:"fingerprint,omitempty"`
	SQL         string           `json:"sql"`
	TraceID     string           `json:"trace_id,omitempty"`
	DurationUS  int64            `json:"duration_us"`
	Error       string           `json:"error,omitempty"`
	Slow        bool             `json:"slow,omitempty"`
	RowsOut     int64            `json:"rows_out,omitempty"`
	PhasesUS    map[string]int64 `json:"phases_us,omitempty"`
	Sources     []SourceIO       `json:"sources,omitempty"`
	Retries     int64            `json:"retries,omitempty"`
	Breakers    int64            `json:"breaker_events,omitempty"`
	Partial     string           `json:"partial,omitempty"`
}

// Emit writes one record as a JSON line. Marshal errors are swallowed:
// the query log must never fail a query.
func (l *StructuredLog) Emit(rec QueryLogRecord) {
	if l == nil || l.w == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(b)
	l.mu.Unlock()
}

// buildRecord assembles a record from what QueryLog.Finish knows plus
// the (possibly nil) trace.
func (l *StructuredLog) buildRecord(sql string, start time.Time, d time.Duration, err error, tr *Trace, slow bool) QueryLogRecord {
	rec := QueryLogRecord{
		Time:       start.UTC().Format(time.RFC3339Nano),
		SQL:        sql,
		DurationUS: d.Microseconds(),
		Slow:       slow,
	}
	if l.fingerprint != nil {
		rec.Fingerprint = l.fingerprint(sql)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if tr == nil {
		return rec
	}
	rec.TraceID = tr.ID()
	root := tr.Root()
	if root == nil {
		return rec
	}
	rec.RowsOut, _ = root.RowsOut()
	if v, ok := root.Attr("partial"); ok {
		rec.Partial = v
	}
	rec.PhasesUS = phaseBreakdown(root)
	rec.Sources = sourceBreakdown(tr)
	rec.Retries = int64(len(tr.FindAll(SpanRetry)))
	rec.Breakers = int64(len(tr.FindAll(SpanBreaker)))
	return rec
}

// phaseBreakdown sums the root's direct children by phase name —
// parse/resolve/optimize/decompose plus the top-level exec subtree.
func phaseBreakdown(root *Span) map[string]int64 {
	out := map[string]int64{}
	for _, c := range root.Children() {
		switch c.Kind() {
		case SpanParse, SpanResolve, SpanOptimize, SpanDecompose, SpanExec,
			SpanWrite, SpanPrepare, SpanCommit, SpanAbort:
			out[c.Kind().String()] += c.Duration().Microseconds()
		default:
			// Retry/breaker markers and nested detail spans are not
			// top-level phases.
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sourceBreakdown extracts one SourceIO per ship span from the span's
// measured record: the rows and bytes its wire stream delivered and the
// remote-compute vs WAN split of the round trip.
func sourceBreakdown(tr *Trace) []SourceIO {
	ships := tr.FindAll(SpanShip)
	if len(ships) == 0 {
		return nil
	}
	out := make([]SourceIO, 0, len(ships))
	for _, sh := range ships {
		st, _ := sh.Stats()
		io := SourceIO{
			Rows: st.Rows, Bytes: st.Bytes,
			ShipUS: sh.Duration().Microseconds(), RemoteUS: st.RemoteUS, WanUS: st.WanUS,
		}
		io.Source, _ = sh.Attr("source")
		out = append(out, io)
	}
	return out
}
