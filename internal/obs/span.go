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
// trace tree and the structured query log all render it, from a span's
// snapshot (SpanData.Stats).
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
	// RemoteUS and WanUS are derived when a ship span is snapshotted:
	// the duration of the footer the component system sent (its own
	// compute time for the sub-query, see AttachData) and the rest of
	// the ship span, WAN transit plus mediator-side decode.
	RemoteUS, WanUS int64
}

// Span is one timed region of a trace: the write side of it. What it
// recorded is read from a snapshot, Data. All methods are safe on a nil
// receiver (they no-op), and safe for concurrent use: parallel union
// branches and 2PC fan-out attach children from multiple goroutines.
type Span struct {
	mu       sync.Mutex
	id       uint64
	kind     SpanKind
	ended    bool
	measured bool // SetStats was called: stats renders as rows/bytes attrs
	name     string
	start    time.Time
	dur      time.Duration
	attrs    []Attr
	stats    OpStats
	children []*Span
	// footer is the component system's finished subtree of a ship span
	// (AttachData): data, read as the last child of every snapshot.
	footer *SpanData
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

// SetInt annotates the span with an integer value. Untraced, it formats
// nothing.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.SetAttr(key, strconv.FormatInt(v, 10))
	}
}

// SetStats publishes st as the span's measured record; a later call
// (Close after EOF) replaces it.
func (s *Span) SetStats(st *OpStats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stats, s.measured = *st, true
	s.mu.Unlock()
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanData is a finished snapshot of a span subtree, and the one thing
// every view reads: EXPLAIN ANALYZE (through Stats), the trace tree and
// its JSON, the query log and /slow, and the footer a component system
// sends. A snapshot is read, never written: a footer's subtree is shared
// by every snapshot of the trace it was stitched into.
type SpanData struct {
	Kind       string      `json:"kind"`
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationUS int64       `json:"duration_us"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanData `json:"children,omitempty"`
	// Stats is the span's measured record, nil when it has none; Attrs
	// renders it.
	Stats *OpStats `json:"-"`
}

// Data snapshots the span subtree. The attrs are the explicit
// annotations followed by the ones derived from the measured record —
// est_rows, rows and bytes, a ship span's remote_us and wan_us, and on
// a query span rows_out, the rows of its last measured exec child
// (subquery plans run under the resolve span, so the last one is the
// statement's own).
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := &SpanData{
		Kind:       s.kind.String(),
		Name:       s.name,
		Start:      s.start,
		DurationUS: s.dur.Microseconds(),
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	if !s.ended {
		d.DurationUS = time.Since(s.start).Microseconds()
	}
	if s.measured {
		st := s.stats
		d.Stats = &st
	}
	// Children are only appended: the ones counted now stay put.
	children, footer := s.children, s.footer
	s.mu.Unlock()
	if n := len(children); n > 0 || footer != nil {
		d.Children = make([]*SpanData, 0, n+1)
	}
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	add := func(key string, v int64) {
		d.Attrs = append(d.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
	}
	var remote, wan int64 // a footer's share of a ship span, and the rest
	if footer != nil {
		d.Children = append(d.Children, footer)
		remote, wan = footer.DurationUS, max(d.DurationUS-footer.DurationUS, 0)
	}
	if st := d.Stats; st != nil {
		if remote > 0 {
			st.RemoteUS, st.WanUS = remote, wan
		}
		if st.HasEst {
			add("est_rows", int64(st.EstRows))
		}
		add("rows", st.Rows)
		add("bytes", st.Bytes)
	}
	if remote > 0 {
		add("remote_us", remote)
		add("wan_us", wan)
	}
	if s.kind == SpanQuery {
		if rows, ok := d.rowsOut(); ok {
			add("rows_out", rows)
		}
	}
	return d
}

// rowsOut is what a statement's top operator produced: the measured
// rows of d's last exec child. ok is false when the statement ran no
// plan.
func (d *SpanData) rowsOut() (rows int64, ok bool) {
	for _, c := range d.Children {
		if c.Stats != nil && c.Kind == kindNames[SpanExec] {
			rows, ok = c.Stats.Rows, true
		}
	}
	return rows, ok
}

// Attr returns the value of the named attribute.
func (d *SpanData) Attr(key string) (string, bool) {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// FindAll returns every span of the given kind in the subtree, in
// depth-first order. Safe on a nil snapshot.
func (d *SpanData) FindAll(kind SpanKind) []*SpanData {
	var out []*SpanData
	name := kind.String()
	var walk func(d *SpanData)
	walk = func(d *SpanData) {
		if d == nil {
			return
		}
		if d.Kind == name {
			out = append(out, d)
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(d)
	return out
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
	// Sixteen hex digits by hand: fmt's printer comes from a sync.Pool,
	// which a GC empties, so Sprintf would cost a traced statement two
	// objects more whenever a collection ran since the last one.
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[z&15]
		z >>= 4
	}
	return string(b[:])
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

// Data snapshots the whole trace, or returns nil when no span has
// started.
func (t *Trace) Data() *SpanData { return t.Root().Data() }

// Tree renders the trace as an indented text tree, one span per line:
//
//	query SELECT ... 1.2ms
//	  parse 40µs
//	  exec Join(hash) 1.1ms {rows=12}
func (t *Trace) Tree() string {
	d := t.Data()
	if d == nil {
		return "(empty trace)\n"
	}
	var b strings.Builder
	writeSpan(&b, d, 0)
	return b.String()
}

func writeSpan(b *strings.Builder, d *SpanData, depth int) {
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
	for _, c := range d.Children {
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
	}{t.id, t.name, t.Data()})
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
