package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStructuredLogSampling(t *testing.T) {
	always := NewStructuredLog(&strings.Builder{}, 1, nil)
	never := NewStructuredLog(&strings.Builder{}, 0, nil)
	for i := 0; i < 100; i++ {
		if !always.SampleHit() {
			t.Fatal("rate 1 must always hit")
		}
		if never.SampleHit() {
			t.Fatal("rate 0 must never hit")
		}
	}
	half := NewStructuredLog(&strings.Builder{}, 0.5, nil)
	hits := 0
	for i := 0; i < 2000; i++ {
		if half.SampleHit() {
			hits++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Errorf("rate 0.5 hit %d/2000 draws", hits)
	}
	var nilLog *StructuredLog
	if nilLog.SampleHit() {
		t.Error("nil log must never sample")
	}
	nilLog.Emit(QueryLogRecord{}) // must not panic
}

// TestStructuredLogRecord builds a realistic trace — root with phase
// children, a measured exec span over a measured ship span with
// stitched remote timing, a retry marker — and checks the emitted JSON
// line carries every breakdown, taken from the typed records.
func TestStructuredLogRecord(t *testing.T) {
	tr := NewTrace("SELECT 1")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, SpanQuery, "SELECT 1")
	_, p := StartSpan(ctx, SpanParse, "")
	p.End()
	xctx, x := StartSpan(ctx, SpanExec, "join")
	sctx, sh := StartSpan(xctx, SpanShip, "ny.items")
	sh.SetAttr("source", "ny")
	_, rt := StartSpan(sctx, SpanRetry, "attempt 2")
	rt.End()
	time.Sleep(time.Millisecond) // the ship round trip outlasts its remote share
	sh.SetRemoteUS(7)
	sh.SetStats(&OpStats{Rows: 42, Bytes: 1000})
	sh.End()
	x.SetStats(&OpStats{Rows: 5, Bytes: 90})
	x.End()
	root.SetAttr("partial", "1/2 sources")
	root.End()

	var buf strings.Builder
	sl := NewStructuredLog(&buf, 1, func(s string) string { return "fp-" + s })
	sl.Emit(sl.buildRecord("SELECT 1", time.Now(), 123*time.Microsecond, nil, tr, true))

	var rec QueryLogRecord
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("emitted line is not JSON: %v\n%s", err, buf.String())
	}
	if rec.Fingerprint != "fp-SELECT 1" || rec.SQL != "SELECT 1" || !rec.Slow {
		t.Errorf("record = %+v", rec)
	}
	if rec.TraceID != tr.ID() {
		t.Errorf("trace id = %q, want %q", rec.TraceID, tr.ID())
	}
	if rec.RowsOut != 5 || rec.Partial != "1/2 sources" {
		t.Errorf("rows_out/partial = %d/%q", rec.RowsOut, rec.Partial)
	}
	if _, ok := rec.PhasesUS["parse"]; !ok {
		t.Errorf("phases = %v, want parse present", rec.PhasesUS)
	}
	if rec.Retries != 1 {
		t.Errorf("retries = %d, want 1", rec.Retries)
	}
	if len(rec.Sources) != 1 {
		t.Fatalf("sources = %v", rec.Sources)
	}
	src := rec.Sources[0]
	if src.Source != "ny" || src.Rows != 42 || src.Bytes != 1000 || src.RemoteUS != 7 {
		t.Errorf("source io = %+v", src)
	}
	if src.WanUS <= 0 || src.WanUS != src.ShipUS-src.RemoteUS {
		t.Errorf("wan_us = %d, want ship_us %d less remote_us %d", src.WanUS, src.ShipUS, src.RemoteUS)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.Time); err != nil {
		t.Errorf("time %q not RFC3339Nano: %v", rec.Time, err)
	}
}

// TestSpanKindRoundTrip: every kind has a name, and KindFromString reads
// it back.
func TestSpanKindRoundTrip(t *testing.T) {
	for k := SpanQuery; k <= SpanStream; k++ {
		back, ok := KindFromString(k.String())
		if k.String() == "" || !ok || back != k {
			t.Errorf("kind %d: String() = %q, KindFromString = %v, %v", k, k.String(), back, ok)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Error("unknown kind name must not parse")
	}
}

func TestSpanFromDataAttach(t *testing.T) {
	data := &SpanData{
		Kind: "remote", Name: "ny", DurationUS: 100,
		Attrs: []Attr{{Key: "trace_id", Value: "abc"}},
		Children: []*SpanData{
			{Kind: "exec", Name: "items", DurationUS: 60},
			{Kind: "bogus-kind", Name: "future", DurationUS: 1},
		},
	}
	tr := NewTrace("q")
	ctx := WithTrace(context.Background(), tr)
	_, ship := StartSpan(ctx, SpanShip, "ny.items")
	ship.AttachData(data)
	ship.End()

	kids := ship.Children()
	if len(kids) != 1 {
		t.Fatalf("ship children = %d", len(kids))
	}
	remote := kids[0]
	if remote.Kind() != SpanRemote || remote.Name() != "ny" {
		t.Errorf("remote = %v %q", remote.Kind(), remote.Name())
	}
	if remote.Duration() != 100*time.Microsecond {
		t.Errorf("duration = %v", remote.Duration())
	}
	if v, _ := remote.Attr("trace_id"); v != "abc" {
		t.Errorf("attrs not copied: %v", v)
	}
	sub := remote.Children()
	if len(sub) != 2 {
		t.Fatalf("remote children = %d", len(sub))
	}
	// Unknown kinds from an out-of-version peer degrade to SpanRemote.
	if sub[1].Kind() != SpanRemote {
		t.Errorf("unknown kind mapped to %v, want remote", sub[1].Kind())
	}
	// Nil safety all the way down.
	var nilSpan *Span
	nilSpan.AttachData(data)
	ship.AttachData(nil)
	if SpanFromData(nil) != nil {
		t.Error("SpanFromData(nil) must be nil")
	}
}

func TestCapSpanData(t *testing.T) {
	// A root with 10 children, each with 2 children: 31 nodes.
	root := &SpanData{Kind: "query", Name: "root"}
	for i := 0; i < 10; i++ {
		c := &SpanData{Kind: "exec", Name: "child"}
		c.Children = []*SpanData{{Kind: "ship"}, {Kind: "fetch"}}
		root.Children = append(root.Children, c)
	}
	if n := CountSpanData(root); n != 31 {
		t.Fatalf("CountSpanData = %d", n)
	}

	capped := CapSpanData(root, 10)
	if n := CountSpanData(capped); n != 10 {
		t.Errorf("capped size = %d, want 10", n)
	}
	found := false
	for _, a := range capped.Attrs {
		if a.Key == "truncated_spans" {
			found = true
			if a.Value != "21" {
				t.Errorf("truncated_spans = %q, want 21", a.Value)
			}
		}
	}
	if !found {
		t.Error("capped tree missing truncated_spans attr")
	}
	// The input tree is untouched.
	if len(root.Attrs) != 0 || CountSpanData(root) != 31 {
		t.Error("CapSpanData modified its input")
	}

	// A tree under budget passes through whole, unannotated.
	whole := CapSpanData(root, 1000)
	if CountSpanData(whole) != 31 || len(whole.Attrs) != 0 {
		t.Errorf("under-budget cap: %d nodes, attrs %v", CountSpanData(whole), whole.Attrs)
	}
	if CapSpanData(nil, 5) != nil {
		t.Error("CapSpanData(nil) must be nil")
	}
}
