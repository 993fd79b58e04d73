package resilience

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// fakeSource counts every call and fails each method until its fail
// budget for that method is spent. It implements Writer and
// Transactional so the wrapper's no-retry guarantees can be asserted
// per facet.
type fakeSource struct {
	name  string
	calls map[string]*atomic.Int64
	fails map[string]int
}

func newFakeSource(name string, fails map[string]int) *fakeSource {
	f := &fakeSource{name: name, calls: map[string]*atomic.Int64{}, fails: fails}
	for _, m := range []string{
		"tables", "tableinfo", "execute", "lend", "keep",
		"insert", "update", "delete",
		"begin", "txinsert", "prepare", "commit", "abort",
	} {
		f.calls[m] = &atomic.Int64{}
	}
	return f
}

// step counts one call to m and reports whether it should fail.
func (f *fakeSource) step(m string) error {
	n := f.calls[m].Add(1)
	if int(n) <= f.fails[m] {
		return errors.New(m + " failed")
	}
	return nil
}

func (f *fakeSource) count(m string) int64 { return f.calls[m].Load() }

func (f *fakeSource) Name() string { return f.name }
func (f *fakeSource) Capabilities() source.Capabilities {
	return source.Capabilities{Write: true, Txn: true}
}

func (f *fakeSource) Tables(ctx context.Context) ([]string, error) {
	if err := f.step("tables"); err != nil {
		return nil, err
	}
	return []string{"t"}, nil
}

func (f *fakeSource) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	if err := f.step("tableinfo"); err != nil {
		return nil, err
	}
	return &source.TableInfo{Schema: types.NewSchema(types.Column{Name: "a", Type: types.KindInt}), RowCount: -1}, nil
}

func (f *fakeSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	if err := f.step("execute"); err != nil {
		return nil, err
	}
	return &fakeIter{source.SliceIter([]types.Row{{types.NewInt(1)}}), f}, nil
}

// fakeIter counts the requests to lend, and the rows told kept, that
// reach it.
type fakeIter struct {
	source.RowIter
	f *fakeSource
}

func (i *fakeIter) Lend()      { i.f.calls["lend"].Add(1) }
func (i *fakeIter) Keep(n int) { i.f.calls["keep"].Add(int64(n)) }

func (f *fakeSource) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	if err := f.step("insert"); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

func (f *fakeSource) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	if err := f.step("update"); err != nil {
		return 0, err
	}
	return 1, nil
}

func (f *fakeSource) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	if err := f.step("delete"); err != nil {
		return 0, err
	}
	return 1, nil
}

func (f *fakeSource) BeginTx(ctx context.Context) (source.Tx, error) {
	if err := f.step("begin"); err != nil {
		return nil, err
	}
	return &fakeTx{f: f}, nil
}

type fakeTx struct{ f *fakeSource }

func (t *fakeTx) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	if err := t.f.step("txinsert"); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

func (t *fakeTx) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return 0, nil
}

func (t *fakeTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return 0, nil
}

func (t *fakeTx) Prepare(ctx context.Context) error { return t.f.step("prepare") }
func (t *fakeTx) Commit(ctx context.Context) error  { return t.f.step("commit") }
func (t *fakeTx) Abort(ctx context.Context) error   { return t.f.step("abort") }

// readOnlySource strips the optional facets off a fakeSource. It must
// not embed the fake (embedding would promote the Writer and
// Transactional methods right back).
type readOnlySource struct{ f *fakeSource }

func (r readOnlySource) Name() string                      { return r.f.Name() }
func (r readOnlySource) Capabilities() source.Capabilities { return source.Capabilities{} }
func (r readOnlySource) Tables(ctx context.Context) ([]string, error) {
	return r.f.Tables(ctx)
}
func (r readOnlySource) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	return r.f.TableInfo(ctx, table)
}
func (r readOnlySource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	return r.f.Execute(ctx, q)
}

func wrapped(t *testing.T, fails map[string]int, p *Policy) (*fakeSource, source.Source) {
	t.Helper()
	f := newFakeSource("ny", fails)
	return f, WrapSource(f, p)
}

// stallSource's Tables runs stall: a hung call, or one whose caller
// gives up.
type stallSource struct {
	readOnlySource
	stall func(context.Context) error
}

func (s *stallSource) Tables(ctx context.Context) ([]string, error) { return nil, s.stall(ctx) }

func TestWrapRetriesReads(t *testing.T) {
	f, w := wrapped(t, map[string]int{"tables": 2, "tableinfo": 1, "execute": 2}, fastPolicy())
	if _, err := w.Tables(ctx); err != nil {
		t.Fatalf("Tables after retries: %v", err)
	}
	if n := f.count("tables"); n != 3 {
		t.Errorf("tables calls = %d, want 3", n)
	}
	if _, err := w.TableInfo(ctx, "t"); err != nil {
		t.Fatalf("TableInfo after retries: %v", err)
	}
	it, err := w.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatalf("Execute after stream-open retries: %v", err)
	}
	defer it.Close()
	if n := f.count("execute"); n != 3 {
		t.Errorf("execute calls = %d, want 3 (stream-open retry)", n)
	}
}

// The guarded stream only watches rows go by: a consumer's request to
// be lent them, or its word that it keeps n of them, is the inner
// iterator's to answer.
func TestWrapForwardsLend(t *testing.T) {
	f, w := wrapped(t, nil, fastPolicy())
	it, err := w.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if n := f.count("lend"); n != 0 {
		t.Fatalf("%d requests to lend before any was made", n)
	}
	source.Lend(it)
	if n := f.count("lend"); n != 1 {
		t.Errorf("Lend reached the inner iterator %d times, want 1", n)
	}
	if rows, err := source.DrainCopies(it); err != nil || len(rows) != 1 {
		t.Errorf("%d rows, %v", len(rows), err)
	}
	kept, err := w.Execute(ctx, source.NewScan("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	source.Keep(kept, 7)
	if n := f.count("keep"); n != 7 {
		t.Errorf("Keep(7) reached the inner iterator as %d, want 7", n)
	}
}

// TestWrapNeverRetriesWrites pins the acceptance criterion: a failed
// write is surfaced after exactly one attempt — re-sending a
// non-idempotent message is how federations double-apply writes.
func TestWrapNeverRetriesWrites(t *testing.T) {
	f, w := wrapped(t, map[string]int{"insert": 10, "update": 10, "delete": 10}, fastPolicy())
	wr, ok := w.(source.Writer)
	if !ok {
		t.Fatal("wrapper dropped the Writer facet")
	}
	if _, err := wr.Insert(ctx, "t", []types.Row{{types.NewInt(1)}}); err == nil {
		t.Fatal("failed insert reported success")
	}
	if _, err := wr.Update(ctx, "t", nil, nil); err == nil {
		t.Fatal("failed update reported success")
	}
	if _, err := wr.Delete(ctx, "t", nil); err == nil {
		t.Fatal("failed delete reported success")
	}
	for _, m := range []string{"insert", "update", "delete"} {
		if n := f.count(m); n != 1 {
			t.Errorf("%s calls = %d, want exactly 1 (writes are never retried)", m, n)
		}
	}
}

// TestWrapNeverRetries2PC pins the other half of the criterion: 2PC
// prepare/commit/abort are forwarded exactly once; ambiguity belongs to
// the coordinator, not a retry loop.
func TestWrapNeverRetries2PC(t *testing.T) {
	f, w := wrapped(t, map[string]int{"prepare": 10, "commit": 10, "abort": 10}, fastPolicy())
	txs, ok := w.(source.Transactional)
	if !ok {
		t.Fatal("wrapper dropped the Transactional facet")
	}
	tx, err := txs.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(ctx); err == nil {
		t.Fatal("failed prepare reported success")
	}
	if err := tx.Commit(ctx); err == nil {
		t.Fatal("failed commit reported success")
	}
	if err := tx.Abort(ctx); err == nil {
		t.Fatal("failed abort reported success")
	}
	for _, m := range []string{"begin", "prepare", "commit", "abort"} {
		if n := f.count(m); n != 1 {
			t.Errorf("%s calls = %d, want exactly 1 (2PC messages are sent once)", m, n)
		}
	}
}

func TestWrapBreakerFailsFast(t *testing.T) {
	p := &Policy{MaxRetries: 0, BreakerThreshold: 2, BreakerCooldown: time.Hour}
	f, w := wrapped(t, map[string]int{"tables": 1000}, p)
	// Two failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := w.Tables(ctx); err == nil {
			t.Fatal("failing source reported success")
		}
	}
	before := f.count("tables")
	if before != 2 {
		t.Fatalf("tables calls before open = %d, want 2", before)
	}
	// Further calls are shed without touching the source.
	for i := 0; i < 5; i++ {
		_, err := w.Tables(ctx)
		if err == nil {
			t.Fatal("breaker-open call reported success")
		}
	}
	if after := f.count("tables"); after != before {
		t.Errorf("open breaker still reached the source: %d calls after open", after-before)
	}
}

// TestWrapPreservesFacets: the guard passes the capability vector on
// unchanged — that is what says which facets a source has — forwards the
// facets of a source that implements them, and refuses by name those of
// one that does not.
func TestWrapPreservesFacets(t *testing.T) {
	p := fastPolicy()
	inner := readOnlySource{newFakeSource("ro", nil)}
	ro := WrapSource(inner, p)
	if ro.Capabilities() != inner.Capabilities() {
		t.Errorf("read-only wrap advertises %s, the source %s", ro.Capabilities(), inner.Capabilities())
	}
	_, insErr := ro.Insert(ctx, "t", nil)
	_, updErr := ro.Update(ctx, "t", nil, nil)
	_, delErr := ro.Delete(ctx, "t", nil)
	_, txErr := ro.BeginTx(ctx)
	for op, err := range map[string]error{"insert": insErr, "update": updErr, "delete": delErr, "begin": txErr} {
		if err == nil || !strings.Contains(err.Error(), "source ro is not") {
			t.Errorf("%s on a read-only source: %v, want a refusal that names it", op, err)
		}
	}
	f := newFakeSource("full", nil)
	full := WrapSource(f, p)
	if full.Capabilities() != f.Capabilities() {
		t.Errorf("full wrap advertises %s, the source %s", full.Capabilities(), f.Capabilities())
	}
	if n, err := full.Insert(ctx, "t", []types.Row{{types.NewInt(1)}}); err != nil || n != 1 || f.count("insert") != 1 {
		t.Errorf("full wrap's insert: %d, %v, %d calls reached the source", n, err, f.count("insert"))
	}
	if tx, err := full.BeginTx(ctx); err != nil || tx == nil || f.count("begin") != 1 {
		t.Errorf("full wrap's begin: %v, %d calls reached the source", err, f.count("begin"))
	}
}

// TestWrapRecordsOnBreaker: what the guard's calls find is its
// breaker's to tell, and nothing else keeps it.
func TestWrapRecordsOnBreaker(t *testing.T) {
	p := &Policy{MaxRetries: 0, BreakerThreshold: 1, BreakerCooldown: time.Hour}
	g := WrapSource(newFakeSource("ny", map[string]int{"tables": 1000}), p)
	if _, err := g.Tables(ctx); err == nil {
		t.Fatal("failing source reported success")
	}
	if st := g.Breaker().State(); st != BreakerOpen {
		t.Errorf("breaker is %s after the threshold failure, want open", st)
	}
	if d := g.Breaker().Describe(); !strings.Contains(d, "tables failed") {
		t.Errorf("Describe() = %q, want the last error", d)
	}
}

// TestCancelledProbeIsGivenBack: a half-open probe whose caller gives
// up is neither a success nor a failure, and the next call probes
// instead of being refused for good while the breaker says half-open.
func TestCancelledProbeIsGivenBack(t *testing.T) {
	p := &Policy{BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond}
	cctx, cancel := context.WithCancel(ctx)
	s := &stallSource{readOnlySource: readOnlySource{newFakeSource("ny", nil)}}
	s.stall = func(context.Context) error { cancel(); return context.Canceled }
	g := WrapSource(s, p)
	g.Breaker().Record(ctx, errBoom)
	time.Sleep(20 * time.Millisecond)
	if _, err := g.Tables(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled probe = %v, want context.Canceled", err)
	}
	if d := g.Breaker().Describe(); !strings.HasPrefix(d, "breaker=half-open ok=0 fail=1 ") {
		t.Errorf("Describe() = %q: the cancelled probe was counted", d)
	}
	s.stall = func(context.Context) error { return nil }
	if _, err := g.Tables(ctx); err != nil {
		t.Fatalf("the call after a cancelled probe = %v, want it let through as the probe", err)
	}
	if st := g.Breaker().State(); st != BreakerClosed {
		t.Errorf("breaker is %s after a successful probe, want closed", st)
	}
}

// TestCallTimeoutOpensBreaker: a per-attempt CallTimeout expiry is the
// source's failure, not the caller giving up — a hung source trips the
// breaker.
func TestCallTimeoutOpensBreaker(t *testing.T) {
	p := &Policy{CallTimeout: 5 * time.Millisecond, MaxRetries: 1, BackoffBase: time.Microsecond,
		BreakerThreshold: 2, BreakerCooldown: time.Hour}
	s := &stallSource{readOnlySource: readOnlySource{newFakeSource("ny", nil)}}
	s.stall = func(actx context.Context) error { <-actx.Done(); return actx.Err() }
	g := WrapSource(s, p)
	if _, err := g.Tables(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a hung source = %v, want its attempts' deadline", err)
	}
	if st := g.Breaker().State(); st != BreakerOpen {
		t.Errorf("breaker is %s after two timed-out attempts, want open", st)
	}
}
