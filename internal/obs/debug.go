package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// ActiveQuery is one in-flight query as reported by the debug endpoint.
type ActiveQuery struct {
	ID    int64     `json:"id"`
	SQL   string    `json:"sql"`
	Start time.Time `json:"start"`
	// Sampled records the structured-log sampling draw made at Begin
	// time, so the engine can force tracing for queries that will be
	// logged and Finish can honor the same decision.
	Sampled bool `json:"sampled,omitempty"`
}

// SlowQuery is one completed query that exceeded the slow threshold,
// retained ring-buffer style together with its trace (when tracing was
// enabled for the query).
type SlowQuery struct {
	ID         int64     `json:"id"`
	SQL        string    `json:"sql"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Err        string    `json:"error,omitempty"`
	Trace      *SpanData `json:"trace,omitempty"`
}

// QueryLog tracks in-flight queries and retains slow ones. All methods
// are safe on a nil receiver so call sites can instrument
// unconditionally.
type QueryLog struct {
	mu         sync.Mutex
	nextID     int64
	active     map[int64]inFlight
	threshold  time.Duration
	ring       []SlowQuery
	pos        int
	capacity   int
	structured *StructuredLog
}

// inFlight is an active query as the log holds it. text, when set,
// stands for SQL and is rendered only for somebody who reads it: the
// debug endpoint, the slow ring, a sampled structured record.
type inFlight struct {
	ActiveQuery
	text fmt.Stringer
}

// rendered returns the query with its text in SQL.
func (q inFlight) rendered() ActiveQuery {
	if q.text != nil {
		q.SQL = q.text.String()
	}
	return q.ActiveQuery
}

// maxSlowTraceSpans bounds the span subtree retained per slow-ring
// entry: /slow keeps a capped snapshot, never the full live tree, so a
// pathological query cannot pin an arbitrarily large trace in memory.
const maxSlowTraceSpans = 256

// NewQueryLog returns a query log retaining up to capacity queries
// slower than threshold.
func NewQueryLog(threshold time.Duration, capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = 64
	}
	return &QueryLog{
		active:    map[int64]inFlight{},
		threshold: threshold,
		capacity:  capacity,
	}
}

// SetThreshold changes the slow-query threshold.
func (l *QueryLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.threshold = d
	l.mu.Unlock()
}

// Threshold returns the slow-query threshold.
func (l *QueryLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold
}

// SetStructured attaches a structured JSON query log; Finish then
// emits a record for every sampled or slow query.
func (l *QueryLog) SetStructured(sl *StructuredLog) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.structured = sl
	l.mu.Unlock()
}

// Begin registers an in-flight query and returns its id. When a
// structured log is attached the sampling decision for this query is
// drawn here, once, so callers can consult IsSampled to force tracing.
func (l *QueryLog) Begin(sql string) int64 { return l.begin(sql, nil) }

// BeginLazy is Begin for a caller that has no text at hand, only what
// prints it: text.String() is called if and when the text is read, from
// whichever goroutine reads it, so text must not change until Finish.
// Nothing reads it once Finish has returned (Active renders under the
// log's lock), so the caller may then reuse what prints it.
func (l *QueryLog) BeginLazy(text fmt.Stringer) int64 { return l.begin("", text) }

func (l *QueryLog) begin(sql string, text fmt.Stringer) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	sl := l.structured
	l.nextID++
	id := l.nextID
	l.mu.Unlock()
	// The sampling draw takes the structured log's own lock; keep it
	// outside ours to avoid ordering constraints.
	sampled := sl.SampleHit()
	l.mu.Lock()
	l.active[id] = inFlight{ActiveQuery{ID: id, SQL: sql, Start: time.Now(), Sampled: sampled}, text}
	l.mu.Unlock()
	return id
}

// IsSampled reports the sampling decision drawn for an in-flight query.
func (l *QueryLog) IsSampled(id int64) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active[id].Sampled
}

// Finish deregisters the query, retains it in the slow ring (with a
// size-capped trace snapshot) if it ran longer than the threshold, and
// emits a structured-log record if the query was sampled or slow.
func (l *QueryLog) Finish(id int64, err error, tr *Trace) {
	if l == nil {
		return
	}
	l.mu.Lock()
	held, ok := l.active[id]
	if !ok {
		l.mu.Unlock()
		return
	}
	delete(l.active, id)
	d := time.Since(held.Start)
	slow := d >= l.threshold
	sl := l.structured
	l.mu.Unlock()
	if !slow && (sl == nil || !held.Sampled) {
		return
	}
	// Somebody reads the text: render it, outside the lock. The ring
	// and the record read one snapshot of the finished trace.
	q := held.rendered()
	root := tr.Data()
	if slow {
		entry := SlowQuery{
			ID:         q.ID,
			SQL:        q.SQL,
			Start:      q.Start,
			DurationMS: float64(d) / float64(time.Millisecond),
			Trace:      CapSpanData(root, maxSlowTraceSpans),
		}
		if err != nil {
			entry.Err = err.Error()
		}
		l.mu.Lock()
		if len(l.ring) < l.capacity {
			l.ring = append(l.ring, entry)
		} else {
			l.ring[l.pos] = entry
		}
		l.pos = (l.pos + 1) % l.capacity
		l.mu.Unlock()
	}
	if sl != nil {
		sl.Emit(sl.buildRecord(q.SQL, q.Start, d, err, tr.ID(), root, slow))
	}
}

// Active returns the in-flight queries, oldest first. Each text is
// rendered under the log's lock, so none is read after its Finish.
func (l *QueryLog) Active() []ActiveQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]ActiveQuery, 0, len(l.active))
	for _, q := range l.active {
		out = append(out, q.rendered())
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Slow returns the retained slow queries, most recent first.
func (l *QueryLog) Slow() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]SlowQuery, 0, len(l.ring))
	// Walk the ring backwards from the slot most recently written.
	for i := 0; i < len(l.ring); i++ {
		idx := (l.pos - 1 - i + l.capacity) % l.capacity
		if idx < len(l.ring) {
			out = append(out, l.ring[idx])
		}
	}
	l.mu.Unlock()
	return out
}

// Handler serves the runtime introspection endpoint:
//
//	/               index
//	/metrics        registry snapshot as JSON
//	/sessions       active queries as JSON
//	/slow           slow queries (with capped traces) as JSON
//	/debug/pprof/   the standard net/http/pprof handlers
//
// Either argument may be nil; the corresponding routes then serve empty
// data.
func Handler(reg *Registry, ql *QueryLog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "gis debug endpoint\n\n/metrics\n/sessions\n/slow\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var snap Snapshot
		if reg != nil {
			snap = reg.Snapshot()
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Active []ActiveQuery `json:"active"`
		}{ql.Active()})
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			ThresholdMS float64     `json:"threshold_ms"`
			Slow        []SlowQuery `json:"slow"`
		}{float64(ql.Threshold()) / float64(time.Millisecond), ql.Slow()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
