// Package obs is the mediator's observability layer: query traces with
// typed spans carried through context.Context, a process-wide metrics
// registry (counters, gauges, fixed-bucket histograms), and the runtime
// introspection HTTP handler served by gisd -debug-addr. Everything is
// stdlib-only and designed so the disabled path costs almost nothing: a
// nil *Span or absent Trace turns every method into a no-op, letting
// call sites instrument unconditionally.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies a span within the mediator pipeline. The taxonomy
// mirrors the query lifecycle: a root query span, the planning phases,
// per-source sub-query shipment, per-operator execution, and the 2PC
// rounds for global writes.
type SpanKind uint8

// Span kinds, in rough pipeline order.
const (
	SpanQuery SpanKind = iota
	SpanParse
	SpanResolve
	SpanOptimize
	SpanDecompose
	SpanExec
	SpanShip
	SpanFetch
	SpanWrite
	SpanPrepare
	SpanCommit
	SpanAbort
	// SpanRetry marks a resilience-layer retry attempt; SpanBreaker marks
	// a circuit-breaker state transition. Both are zero-width event
	// markers attached under whatever span was active at the time.
	SpanRetry
	SpanBreaker
	// SpanRemote roots a component-system subtree stitched into the
	// mediator's trace from a result stream's footer; SpanStream times the
	// remote side's row-streaming phase. See DESIGN.md "Distributed
	// tracing & plan telemetry".
	SpanRemote
	SpanStream
)

// kindNames is each kind's name, indexed by kind: what String prints and
// KindFromString reads back.
var kindNames = [...]string{
	SpanQuery:     "query",
	SpanParse:     "parse",
	SpanResolve:   "resolve",
	SpanOptimize:  "optimize",
	SpanDecompose: "decompose",
	SpanExec:      "exec",
	SpanShip:      "ship",
	SpanFetch:     "fetch",
	SpanWrite:     "write",
	SpanPrepare:   "prepare",
	SpanCommit:    "commit",
	SpanAbort:     "abort",
	SpanRetry:     "retry",
	SpanBreaker:   "breaker",
	SpanRemote:    "remote",
	SpanStream:    "stream",
}

func (k SpanKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// OpStats is the one measured record of an operator execution: what the
// stream under a span produced and what that cost. EXPLAIN ANALYZE, the
// trace tree and the structured query log all render it.
// The exec measuring wrapper fills a private copy while rows flow and
// publishes it with SetStats when the stream ends, so nothing is shared
// between goroutines per row. A fragment scan has two: its output (exec
// span) and its wire stream (ship span — EXPLAIN ANALYZE's wire_rows).
type OpStats struct {
	// Op is what ran (the plan node, opaque to obs): the records of every
	// execution of one node are summed at render time. Nil on records
	// nobody sums (fetch spans).
	Op any
	// EstRows is the planner's cardinality estimate; valid when HasEst.
	// This is the estimate's one home: est= beside rows= in EXPLAIN
	// ANALYZE, est_rows in the trace tree.
	EstRows float64
	HasEst  bool
	// Rows and Bytes (types.Row.EstimatedSize) the stream produced.
	Rows, Bytes int64
	// Open is the wall time until the stream existed — an aggregate's
	// fold, a sort's collect, a join's build, a sub-query's round trip
	// all happen there — and Next the time inside the stream's Next
	// calls, both inclusive of the operator's inputs: EXPLAIN ANALYZE's
	// time= is their sum. Close is the time inside Close (discarding an
	// undrained remote cursor can dominate a LIMIT query).
	Open, Next, Close time.Duration
	// RemoteUS is the component system's own compute time for a shipped
	// sub-query, set by the wire client's footer stitch (SetRemoteUS).
	// WanUS is derived when the record is read: the rest of the ship
	// span, WAN transit plus mediator-side decode.
	RemoteUS, WanUS int64
}

// Span is one timed region of a trace. All methods are safe on a nil
// receiver (they no-op), and safe for concurrent use: parallel union
// branches and 2PC fan-out attach children from multiple goroutines.
type Span struct {
	mu       sync.Mutex
	id       uint64
	kind     SpanKind
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	stats    OpStats
	measured bool // SetStats was called: stats renders as rows/bytes attrs
	children []*Span
}

// nextSpanID hands out process-unique span ids; id 0 means "no span"
// and is what a nil receiver reports.
var nextSpanID atomic.Uint64

// ID returns the span's process-unique id (0 for a nil span). The id
// travels in wire trace context so a component system can tag its
// remote subtree with the mediator span it belongs under.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End records the span's duration. Subsequent calls are no-ops, so
// wrappers may End defensively on both EOF and Close.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetAttr annotates the span, replacing any existing value for key.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetStats publishes st as the span's measured record; a later call
// (Close after EOF) replaces it. RemoteUS is kept: the wire client sets
// it during the stream's last Next, before the wrapper publishes.
func (s *Span) SetStats(st *OpStats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	remote := s.stats.RemoteUS
	s.stats, s.measured = *st, true
	s.stats.RemoteUS = remote
	s.mu.Unlock()
}

// SetRemoteUS records the remote-compute share of a ship span.
func (s *Span) SetRemoteUS(us int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stats.RemoteUS = us
	s.mu.Unlock()
}

// Stats returns the span's measured record; ok is false until one was
// published (RemoteUS alone may be set before that).
func (s *Span) Stats() (st OpStats, ok bool) {
	if s == nil {
		return OpStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked(), s.measured
}

func (s *Span) statsLocked() OpStats {
	st := s.stats
	if st.RemoteUS > 0 {
		st.WanUS = max(s.durLocked().Microseconds()-st.RemoteUS, 0)
	}
	return st
}

func (s *Span) durLocked() time.Duration {
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// attrsLocked renders the explicit annotations followed by the ones
// derived from the measured record.
func (s *Span) attrsLocked() []Attr {
	out := append([]Attr(nil), s.attrs...)
	add := func(key string, v int64) {
		out = append(out, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
	}
	st := s.statsLocked()
	if s.measured {
		if st.HasEst {
			add("est_rows", int64(st.EstRows))
		}
		add("rows", st.Rows)
		add("bytes", st.Bytes)
	}
	if st.RemoteUS > 0 {
		add("remote_us", st.RemoteUS)
		add("wan_us", st.WanUS)
	}
	return out
}

// Kind returns the span's kind.
func (s *Span) Kind() SpanKind {
	if s == nil {
		return SpanQuery
	}
	return s.kind
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration, or the elapsed time so far
// for a span that has not ended.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durLocked()
}

// Attr returns the value of the named attribute, explicit or derived
// from the measured record.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrsLocked() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Children returns a copy of the span's children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// RowsOut is what a statement's top operator produced: the measured
// rows of the query span's last exec child (subquery plans run under
// the resolve span, so the last one is the statement's own). ok is
// false when the statement ran no plan.
func (s *Span) RowsOut() (rows int64, ok bool) {
	for _, c := range s.Children() {
		if c.Kind() != SpanExec {
			continue
		}
		if st, measured := c.Stats(); measured {
			rows, ok = st.Rows, true
		}
	}
	return rows, ok
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanData is the JSON-marshalable snapshot of a span subtree.
type SpanData struct {
	Kind       string      `json:"kind"`
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationUS int64       `json:"duration_us"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanData `json:"children,omitempty"`
}

// Data snapshots the span subtree for JSON serialisation.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := &SpanData{
		Kind:       s.kind.String(),
		Name:       s.name,
		Start:      s.start,
		DurationUS: s.durLocked().Microseconds(),
		Attrs:      s.attrsLocked(),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	return d
}

// Trace is one query's span tree. Create it with NewTrace, attach it to
// a context with WithTrace, and spans started via StartSpan under that
// context form the tree. The first span started becomes the root; later
// parentless spans attach under the root.
type Trace struct {
	mu   sync.Mutex
	id   string
	name string
	root *Span
}

// NewTrace returns an empty trace with a fresh id. name is
// informational (typically the SQL text).
func NewTrace(name string) *Trace {
	return &Trace{id: newTraceID(), name: name}
}

// NewTraceWithID returns an empty trace reusing an existing id — used
// by component-system servers to echo the mediator's trace id in the
// remote subtree they return.
func NewTraceWithID(id, name string) *Trace {
	return &Trace{id: id, name: name}
}

// ID returns the trace id: 16 hex digits, unique per process and (with
// overwhelming probability) across the federation.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

var (
	traceIDSeed atomic.Uint64
	traceIDOnce sync.Once
)

// newTraceID mixes a crypto-seeded base with a per-process counter via
// splitmix64 — cheap per trace, no global lock beyond one atomic add.
func newTraceID() string {
	traceIDOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			traceIDSeed.Store(binary.LittleEndian.Uint64(b[:]))
		} else {
			traceIDSeed.Store(uint64(time.Now().UnixNano()))
		}
	})
	z := traceIDSeed.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("%016x", z)
}

// Name returns the trace's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Root returns the root span, or nil if no span has started.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// attach links sp into the tree under parent (or as/under the root).
func (t *Trace) attach(parent, sp *Span) {
	if parent != nil {
		parent.addChild(sp)
		return
	}
	t.mu.Lock()
	root := t.root
	if root == nil {
		t.root = sp
	}
	t.mu.Unlock()
	if root != nil {
		root.addChild(sp)
	}
}

// Tree renders the trace as an indented text tree, one span per line:
//
//	query SELECT ... 1.2ms
//	  parse 40µs
//	  exec Join(hash) 1.1ms {rows=12}
func (t *Trace) Tree() string {
	root := t.Root()
	if root == nil {
		return "(empty trace)\n"
	}
	var b strings.Builder
	writeSpan(&b, root, 0)
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	d := s.Data()
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s", d.Kind)
	if d.Name != "" {
		fmt.Fprintf(b, " %s", d.Name)
	}
	fmt.Fprintf(b, " %s", time.Duration(d.DurationUS)*time.Microsecond)
	if len(d.Attrs) > 0 {
		b.WriteString(" {")
		for i, a := range d.Attrs {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s=%s", a.Key, a.Value)
		}
		b.WriteString("}")
	}
	b.WriteString("\n")
	for _, c := range s.Children() {
		writeSpan(b, c, depth+1)
	}
}

// JSON serialises the trace.
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.Marshal(struct {
		ID   string    `json:"id"`
		Name string    `json:"name"`
		Root *SpanData `json:"root"`
	}{t.id, t.name, t.Root().Data()})
}

// FindAll returns every span of the given kind in depth-first order.
func (t *Trace) FindAll(kind SpanKind) []*Span {
	var out []*Span
	var walk func(s *Span)
	walk = func(s *Span) {
		if s == nil {
			return
		}
		if s.Kind() == kind {
			out = append(out, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches tr to the context, enabling span collection.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Enabled reports whether ctx carries a trace. Hot paths use this to
// skip building span names when tracing is off.
func Enabled(ctx context.Context) bool { return TraceFrom(ctx) != nil }

// StartSpan begins a span under ctx's current span (or as the trace
// root) and returns a context carrying the new span as parent. When ctx
// has no trace the original context and a nil span are returned — all
// *Span methods no-op on nil, so callers need no branch.
func StartSpan(ctx context.Context, kind SpanKind, name string) (context.Context, *Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{id: nextSpanID.Add(1), kind: kind, name: name, start: time.Now()}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	tr.attach(parent, sp)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// CurrentSpan returns the span ctx's next StartSpan would nest under,
// or nil when ctx carries no trace or no span has been started. The
// wire client uses it to stitch a remote subtree under the live ship
// span.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
