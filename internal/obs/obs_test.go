package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTrace("SELECT 1")
	ctx := WithTrace(context.Background(), tr)

	qctx, root := StartSpan(ctx, SpanQuery, "SELECT 1")
	if root == nil {
		t.Fatal("expected a span when a trace is attached")
	}
	_, parse := StartSpan(qctx, SpanParse, "")
	parse.End()
	ectx, ex := StartSpan(qctx, SpanExec, "Join")
	_, ship := StartSpan(ectx, SpanShip, "ny.customers")
	ship.SetAttr("sql", "SELECT id FROM customers")
	ship.SetInt("rows", 42)
	ship.End()
	ex.End()
	root.End()

	if got := tr.Root(); got != root {
		t.Fatalf("root = %v, want the first span", got)
	}
	d := tr.Data()
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Children))
	}
	if d.Children[0].Kind != "parse" || d.Children[1].Kind != "exec" {
		t.Fatalf("child kinds = %v, %v", d.Children[0].Kind, d.Children[1].Kind)
	}
	ships := d.FindAll(SpanShip)
	if len(ships) != 1 {
		t.Fatalf("ship spans = %d, want 1", len(ships))
	}
	if v, ok := ships[0].Attr("rows"); !ok || v != "42" {
		t.Fatalf("ship rows attr = %q, %v", v, ok)
	}

	tree := tr.Tree()
	for _, want := range []string{"query SELECT 1", "parse", "exec Join", "ship ny.customers", "rows=42"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), SpanExec, "x")
	if sp != nil {
		t.Fatal("expected nil span without a trace")
	}
	if Enabled(ctx) {
		t.Fatal("Enabled should be false without a trace")
	}
	// All of these must be no-ops, not panics.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	sp.SetStats(&OpStats{Rows: 1})
	sp.AttachData(&SpanData{Kind: "remote"})
	if sp.ID() != 0 || sp.Data() != nil {
		t.Fatal("a nil span has no id and no snapshot")
	}
	var tr *Trace
	if tr.Root() != nil || tr.Name() != "" || tr.Data() != nil || tr.Data().FindAll(SpanExec) != nil {
		t.Fatal("nil trace accessors should return zero values")
	}
	if b, err := tr.JSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil trace JSON = %s, %v", b, err)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("parallel")
	ctx := WithTrace(context.Background(), tr)
	rctx, root := StartSpan(ctx, SpanQuery, "q")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(rctx, SpanExec, "branch")
			sp.SetInt("rows", 1)
			_ = tr.Tree() // a snapshot taken while siblings are attached
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if n := len(root.Data().Children); n != 16 {
		t.Fatalf("children = %d, want 16", n)
	}
}

// TestTreeTakesOneSnapshot: Tree renders one snapshot of the trace, so
// its cost grows with the spans, not with the square of the depth.
func TestTreeTakesOneSnapshot(t *testing.T) {
	chain := func(depth int) *Trace {
		tr := NewTrace("chain")
		ctx := WithTrace(context.Background(), tr)
		for i := 0; i < depth; i++ {
			var sp *Span
			ctx, sp = StartSpan(ctx, SpanExec, "op")
			sp.SetInt("rows", int64(i))
			sp.End()
		}
		return tr
	}
	allocs := func(depth int) float64 {
		tr := chain(depth)
		return testing.AllocsPerRun(20, func() { _ = tr.Tree() })
	}
	short, long := allocs(32), allocs(64)
	t.Logf("Tree allocates %.0f objects over 32 spans, %.0f over 64", short, long)
	if long > 2.2*short {
		t.Errorf("Tree over 64 spans allocates %.0f objects, over 32 %.0f: more than twice", long, short)
	}
}

// TestSpanFitsItsSizeClass: a traced statement allocates a Span an
// operator execution, from the 224-byte size class.
func TestSpanFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n > 224 {
		t.Errorf("a Span is %d bytes, above its 224-byte size class", n)
	}
}

// TestNilSpanSetIntFormatsNothing: an untraced call site that annotates
// a count pays nothing for it.
func TestNilSpanSetIntFormatsNothing(t *testing.T) {
	var sp *Span
	if n := testing.AllocsPerRun(100, func() { sp.SetInt("rows", 4000) }); n != 0 {
		t.Errorf("SetInt on a nil span allocates %.0f objects, want 0", n)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace("q")
	ctx := WithTrace(context.Background(), tr)
	_, root := StartSpan(ctx, SpanQuery, "q")
	root.SetInt("rows", 3)
	root.End()
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name string    `json:"name"`
		Root *SpanData `json:"root"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded.Name != "q" || decoded.Root == nil || decoded.Root.Kind != "query" {
		t.Fatalf("decoded = %+v", decoded)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // samples 0.5..7.5
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 1 || p50 > 4 {
		t.Fatalf("p50 = %v, want within [1,4]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 4 || p99 > 8 {
		t.Fatalf("p99 = %v, want within (4,8]", p99)
	}
	// Overflow bucket reports the last finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	if r.Counter("a").Value() != 3 {
		t.Fatal("counter handle should be shared by name")
	}
	r.Gauge("g").Set(1.5)
	r.Gauge("g").Add(-0.5)
	r.Histogram("h", LatencyBuckets).Observe(0.002)
	snap := r.Snapshot()
	if snap.Counters["a"] != 3 {
		t.Fatalf("snapshot counter = %d", snap.Counters["a"])
	}
	if snap.Gauges["g"] != 1.0 {
		t.Fatalf("snapshot gauge = %v", snap.Gauges["g"])
	}
	if hd := snap.Histograms["h"]; hd.Count != 1 || hd.P50 <= 0 {
		t.Fatalf("snapshot histogram = %+v", hd)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot must be JSON-marshalable: %v", err)
	}
}

func TestQueryLogSlowRing(t *testing.T) {
	ql := NewQueryLog(0, 2) // threshold 0: everything is slow
	for i := 0; i < 3; i++ {
		id := ql.Begin("q")
		if len(ql.Active()) != 1 {
			t.Fatalf("active = %d, want 1", len(ql.Active()))
		}
		ql.Finish(id, nil, nil)
	}
	slow := ql.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow = %d, want ring capacity 2", len(slow))
	}
	if slow[0].ID != 3 || slow[1].ID != 2 {
		t.Fatalf("slow order = %d, %d; want newest first", slow[0].ID, slow[1].ID)
	}
	// Fast queries are not retained.
	ql2 := NewQueryLog(time.Hour, 2)
	ql2.Finish(ql2.Begin("fast"), nil, nil)
	if len(ql2.Slow()) != 0 {
		t.Fatal("fast query should not be retained")
	}
	// Nil receiver is a no-op.
	var nilLog *QueryLog
	nilLog.Finish(nilLog.Begin("x"), nil, nil)
	if nilLog.Active() != nil || nilLog.Slow() != nil {
		t.Fatal("nil query log should return nil slices")
	}
}

// countingText renders a query's text and counts how often it is asked.
type countingText struct{ renders *int }

func (c countingText) String() string { *c.renders++; return "scan t where (id = 7)" }

// A query begun with BeginLazy pays for its text only when somebody
// reads it: the debug endpoint's list, the slow ring, a sampled
// structured record. A fast unsampled one never renders it.
func TestQueryLogRendersLazyTextOnlyForAReader(t *testing.T) {
	renders := 0
	text := countingText{&renders}
	ql := NewQueryLog(time.Hour, 4)
	id := ql.BeginLazy(text)
	if renders != 0 {
		t.Fatalf("BeginLazy rendered the text %d times", renders)
	}
	if a := ql.Active(); len(a) != 1 || a[0].SQL != text.String() || a[0].ID != id {
		t.Fatalf("Active = %+v", a)
	}
	renders = 0
	ql.Finish(id, nil, nil)
	if renders != 0 || len(ql.Slow()) != 0 {
		t.Fatalf("a fast unsampled query rendered its text %d times, slow ring %d", renders, len(ql.Slow()))
	}

	ql.SetThreshold(0) // everything is slow
	ql.Finish(ql.BeginLazy(text), errors.New("boom"), nil)
	if slow := ql.Slow(); renders != 1 || len(slow) != 1 || slow[0].SQL != "scan t where (id = 7)" || slow[0].Err != "boom" {
		t.Fatalf("slow query: %d renders, ring %+v", renders, slow)
	}

	var logged bytes.Buffer
	sampled := NewQueryLog(time.Hour, 4)
	sampled.SetStructured(NewStructuredLog(&logged, 1, nil))
	renders = 0
	sampled.Finish(sampled.BeginLazy(text), nil, nil)
	if renders != 1 || !strings.Contains(logged.String(), `"sql":"scan t where (id = 7)"`) {
		t.Fatalf("sampled query: %d renders, record %s", renders, logged.String())
	}
	// A text given as a string is kept as it is.
	sampled.Finish(sampled.Begin("SELECT 1"), nil, nil)
	if !strings.Contains(logged.String(), `"sql":"SELECT 1"`) {
		t.Fatalf("record of a query begun with its text: %s", logged.String())
	}
}

func TestDebugHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("wire.client.ny.frames_out").Add(7)
	ql := NewQueryLog(0, 4)
	ql.Finish(ql.Begin("SELECT slow"), nil, NewTrace("SELECT slow"))
	srv := httptest.NewServer(Handler(reg, ql))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "wire.client.ny.frames_out") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/slow"); code != 200 || !strings.Contains(body, "SELECT slow") {
		t.Fatalf("/slow = %d %q", code, body)
	}
	if code, _ := get("/sessions"); code != 200 {
		t.Fatalf("/sessions = %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope = %d, want 404", code)
	}
}
