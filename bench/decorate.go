package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// The traced run observes the layers from outside: every source is
// wrapped twice by the timing decorator below — mediator-side, around
// what the catalog hands the executor (a wire.Client or a local store),
// and component-side, around the store itself (what wire.Serve serves).
// The difference between the two on a remote source is the wire.

// side says where a decorator sits.
type side uint8

const (
	mediatorSide side = iota
	componentSide
)

// opClass groups the timed calls the per-layer metrics distinguish.
type opClass uint8

const (
	opRead    opClass = iota // Execute, Next, Close
	opWrite                  // Insert, Update, Delete, BeginTx, Abort
	opPrepare                // 2PC vote
	opCommit                 // 2PC decision
)

// callKind is one timed entry point of a source.
type callKind uint8

const (
	callExecute callKind = iota
	callStream           // a row stream's Next and Close calls, one span
	callInsert
	callUpdate
	callDelete
	callBegin
	callPrepare
	callCommit
	callAbort
	numCalls
)

var (
	callNames = [numCalls]string{"execute", "stream", "insert", "update", "delete", "begin", "prepare", "commit", "abort"}
	callOps   = [numCalls]opClass{opRead, opRead, opWrite, opWrite, opWrite, opWrite, opPrepare, opCommit, opWrite}
)

// interval is one timed call into a source, in nanoseconds since the
// recorder's epoch.
type interval struct {
	start, end int64
	side       side
	remote     bool
	kind       uint8 // store kind behind the source: index into storeKinds
	op         opClass
}

// span is what the trace file holds: one record per stage of a
// statement and per call into a source. A row stream is one span from
// its first Next to its last with the calls' summed time in BusyNS,
// not one span per row.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	Source  string `json:"source,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Rows    int64  `json:"rows,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
}

// recorder collects the traced run's spans and call intervals. One
// closed-loop client means one statement is in flight at a time, so the
// current statement and stage are recorder state rather than context
// values — which is also what lets component-side decorators, reached
// over TCP, attribute their calls without any change to the wire.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	// stmt is the statement being traced, -1 between statements: loading
	// and warm-up pass through the decorators unrecorded. A call or row
	// stream belongs to the statement current when it began and is
	// dropped if that one has ended by the time it reports — a server
	// still draining a stream the mediator closed early (LIMIT) must not
	// be charged to the next statement.
	stmt  int
	stage int64 // span the driver goroutine has open: parent of mediator-side calls
	// open maps a source name to the mediator-side span most recently
	// opened on it: the parent of that source's component-side calls.
	// Best effort when one statement has two calls open on one source.
	open map[string]int64
	// keepSpans is off beyond the statements the trace file holds.
	keepSpans bool
	spans     []span
	ivals     []interval   // the current statement's calls
	free      [][]interval // buffers of ended row streams, for the next ones
	calls     int64        // mediator-side calls that cost a round trip
	rowsIn    int64        // rows the mediator fetched from sources
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), stmt: -1, open: map[string]int64{}}
}

// now is nanoseconds since the epoch: one read of the monotonic clock
// (time.Now reads the wall clock too, and a clock read is the decorator's
// whole cost on a row that is already in a buffer).
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginStmt resets the per-statement state; the statement's calls are
// collected in buf's memory.
func (r *recorder) beginStmt(id int, keepSpans bool, buf []interval) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stmt, r.keepSpans = id, keepSpans
	r.ivals = buf[:0]
	r.calls, r.rowsIn = 0, 0
}

// endStmt closes the statement to further reports and returns what it
// recorded: its calls, how many cost a round trip, and the rows fetched.
func (r *recorder) endStmt() (ivals []interval, calls, rowsIn int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ivals, r.ivals = r.ivals, nil
	r.stmt = -1
	return ivals, r.calls, r.rowsIn
}

// timeStage times one stage of a statement on the driver goroutine.
// Stages nest: while fn runs, the stage is the parent of the stages and
// mediator-side source calls opened under it.
func (r *recorder) timeStage(name string, fn func()) int64 {
	r.mu.Lock()
	r.nextID++
	id, parent := r.nextID, r.stage
	r.stage = id
	r.mu.Unlock()
	t0 := r.now()
	fn()
	t1 := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stage = parent
	if r.keepSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Stmt: r.stmt, Name: name, StartNS: t0, EndNS: t1})
	}
	return t1 - t0
}

// timedSource is the read facet of a decorated source.
type timedSource struct {
	in     source.Source
	rec    *recorder
	side   side
	remote bool
	kind   uint8 // index into storeKinds
	// names are the span names: "source.<call>" mediator-side,
	// "<store kind>.<call>" component-side.
	names [numCalls]string
}

// wrap decorates src, preserving its optional facets the way
// resilience.WrapSource does: the result implements source.Writer and
// source.Transactional only when src does, so the write planner's and
// the wire server's capability checks see what they would see undecorated.
func (r *recorder) wrap(src source.Source, sd side, kind string, remote bool) source.Source {
	t := &timedSource{in: src, rec: r, side: sd, remote: remote, kind: uint8(slices.Index(storeKinds, kind))}
	prefix := kind
	if sd == mediatorSide {
		prefix = "source"
	}
	for k, name := range callNames {
		t.names[k] = prefix + "." + name
	}
	w, isWriter := src.(source.Writer)
	tx, isTxn := src.(source.Transactional)
	switch {
	case isWriter && isTxn:
		return &timedFull{timedWriter: &timedWriter{timedSource: t, w: w}, t: tx}
	case isWriter:
		return &timedWriter{timedSource: t, w: w}
	case isTxn:
		return &timedTxn{timedSource: t, t: tx}
	default:
		return t
	}
}

// call times one non-streaming call into the source.
func (t *timedSource) call(kind callKind, fn func() error) error {
	r := t.rec
	r.mu.Lock()
	r.nextID++
	id, parent, stmt := r.nextID, r.stage, r.stmt
	if t.side == mediatorSide {
		r.open[t.in.Name()] = id
		r.calls++
	} else {
		parent = r.open[t.in.Name()]
	}
	r.mu.Unlock()
	t0 := r.now()
	err := fn()
	t1 := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if stmt < 0 || stmt != r.stmt {
		return err
	}
	r.ivals = append(r.ivals, interval{t0, t1, t.side, t.remote, t.kind, callOps[kind]})
	if r.keepSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: t.names[kind],
			Source: t.in.Name(), StartNS: t0, EndNS: t1})
	}
	return err
}

func (t *timedSource) Name() string                                 { return t.in.Name() }
func (t *timedSource) Tables(ctx context.Context) ([]string, error) { return t.in.Tables(ctx) }
func (t *timedSource) Capabilities() source.Capabilities            { return t.in.Capabilities() }
func (t *timedSource) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	return t.in.TableInfo(ctx, table)
}

// Stats forwards optimizer statistics, so Engine.Analyze and the wire
// server find them behind the decorator.
func (t *timedSource) Stats(table string) (*stats.TableStats, error) {
	sp, ok := t.in.(interface {
		Stats(table string) (*stats.TableStats, error)
	})
	if !ok {
		return nil, fmt.Errorf("bench: source %s does not provide statistics", t.in.Name())
	}
	return sp.Stats(table)
}

func (t *timedSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	var it source.RowIter
	err := t.call(callExecute, func() (err error) {
		it, err = t.in.Execute(ctx, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	r := t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	//lint:ignore hotalloc one decorator per row stream, and only in the traced run, whose cost trace.overhead_frac reports
	ti := &timedIter{in: it, rec: r, mediator: t.side == mediatorSide,
		proto: interval{side: t.side, remote: t.remote, kind: t.kind, op: opRead},
		sp:    span{ID: r.nextID, Parent: r.stage, Stmt: r.stmt, Name: t.names[callStream], Source: t.in.Name()}}
	if n := len(r.free); n > 0 {
		ti.buf, r.free = r.free[n-1], r.free[:n-1]
	}
	if ti.mediator {
		r.open[t.in.Name()] = ti.sp.ID
	} else {
		ti.sp.Parent = r.open[t.in.Name()]
	}
	return ti, nil
}

// timedIter times every Next and Close of a row stream: two clock reads
// and one buffered interval per call, nothing else — on a row the source
// already holds, that is what the decorator adds to the statement, and
// trace.overhead_frac reports the sum. A stream has one consumer, so the
// calls are buffered without a lock, in a buffer taken from the ended
// streams', and handed to the recorder when the stream ends — before the
// consumer of a remote stream can see its end, so before the statement
// does.
type timedIter struct {
	in       source.RowIter
	rec      *recorder
	mediator bool
	proto    interval // the stream's calls, less their times
	sp       span     // the stream's span, completed at Close; sp.Stmt is the statement it began in
	buf      []interval
	rows     int64
}

func (t *timedIter) add(t0, t1 int64) {
	iv := t.proto
	iv.start, iv.end = t0, t1
	t.buf = append(t.buf, iv)
	if t.sp.Calls == 0 {
		t.sp.StartNS = t0
	}
	t.sp.EndNS = t1
	t.sp.Calls++
	t.sp.BusyNS += t1 - t0
}

// flush hands the buffered calls to the recorder and, when the stream
// has closed, its buffer to the next stream.
func (t *timedIter) flush(closed bool) {
	r := t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.sp.Stmt >= 0 && t.sp.Stmt == r.stmt {
		r.ivals = append(r.ivals, t.buf...)
		if t.mediator {
			r.rowsIn += t.rows
		}
		if closed && r.keepSpans {
			r.spans = append(r.spans, t.sp)
		}
	}
	t.buf, t.rows = t.buf[:0], 0
	if closed && t.buf != nil {
		r.free = append(r.free, t.buf)
		t.buf = nil
	}
}

func (t *timedIter) Next() (types.Row, error) {
	t0 := t.rec.now()
	row, err := t.in.Next()
	t.add(t0, t.rec.now())
	if err != nil {
		t.flush(false)
	} else {
		t.rows++
		t.sp.Rows++
	}
	return row, err
}

func (t *timedIter) Close() error {
	t0 := t.rec.now()
	err := t.in.Close()
	t.add(t0, t.rec.now())
	t.flush(true)
	return err
}

// timedWriter adds the Writer facet.
type timedWriter struct {
	*timedSource
	w source.Writer
}

func (t *timedWriter) Insert(ctx context.Context, table string, rows []types.Row) (n int64, err error) {
	err = t.call(callInsert, func() (err error) { n, err = t.w.Insert(ctx, table, rows); return err })
	return n, err
}

func (t *timedWriter) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (n int64, err error) {
	err = t.call(callUpdate, func() (err error) { n, err = t.w.Update(ctx, table, filter, set); return err })
	return n, err
}

func (t *timedWriter) Delete(ctx context.Context, table string, filter expr.Expr) (n int64, err error) {
	err = t.call(callDelete, func() (err error) { n, err = t.w.Delete(ctx, table, filter); return err })
	return n, err
}

// timedTxn adds the Transactional facet to a source without autocommit
// writes.
type timedTxn struct {
	*timedSource
	t source.Transactional
}

func (t *timedTxn) BeginTx(ctx context.Context) (source.Tx, error) {
	return beginTimedTx(ctx, t.timedSource, t.t)
}

// timedFull is a source with both facets.
type timedFull struct {
	*timedWriter
	t source.Transactional
}

func (t *timedFull) BeginTx(ctx context.Context) (source.Tx, error) {
	return beginTimedTx(ctx, t.timedSource, t.t)
}

func beginTimedTx(ctx context.Context, s *timedSource, t source.Transactional) (source.Tx, error) {
	var tx source.Tx
	err := s.call(callBegin, func() (err error) { tx, err = t.BeginTx(ctx); return err })
	if err != nil {
		return nil, err
	}
	return &timedTx{timedWriter: timedWriter{timedSource: s, w: tx}, tx: tx}, nil
}

// timedTx times a participant transaction's writes and its 2PC rounds.
type timedTx struct {
	timedWriter
	tx source.Tx
}

func (t *timedTx) Prepare(ctx context.Context) error {
	return t.call(callPrepare, func() error { return t.tx.Prepare(ctx) })
}

func (t *timedTx) Commit(ctx context.Context) error {
	return t.call(callCommit, func() error { return t.tx.Commit(ctx) })
}

func (t *timedTx) Abort(ctx context.Context) error {
	return t.call(callAbort, func() error { return t.tx.Abort(ctx) })
}

// merged returns the union of the intervals keep selects as sorted,
// disjoint [start,end) pairs. Fragments of one statement run in
// parallel, so a layer's time is the part of the statement it covers,
// not the sum of its calls. The result is built in buf's memory: the
// traced pass analyses every statement between two measured ones, and
// garbage made there would be collected while the next one runs.
func merged(buf [][2]int64, ivals []interval, keep func(interval) bool) [][2]int64 {
	sel := buf[:0]
	for _, iv := range ivals {
		if iv.end > iv.start && keep(iv) {
			sel = append(sel, [2]int64{iv.start, iv.end})
		}
	}
	sort.Slice(sel, func(a, b int) bool { return sel[a][0] < sel[b][0] })
	out := sel[:0]
	for _, s := range sel {
		if n := len(out); n > 0 && s[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], s[1])
		} else {
			out = append(out, s)
		}
	}
	return out
}

// lengthNS is the total length of sorted disjoint intervals.
func lengthNS(a [][2]int64) int64 {
	var total int64
	for _, s := range a {
		total += s[1] - s[0]
	}
	return total
}

// overlapNS is the length of the intersection of two sorted disjoint
// interval lists. A parent's self time is its length minus its overlap
// with its children: children run ahead of and behind the parent (a
// server streams into the credit window while the mediator is busy
// elsewhere), and only the part inside the parent is the parent waiting.
func overlapNS(a, b [][2]int64) int64 {
	var total int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			total += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}
