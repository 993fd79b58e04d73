package plan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"gis/internal/catalog"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// sameArray reports whether a and b are one array: a scan that follows
// another shares its slices, not copies of them.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestAlikeScansShareTheirTranslation plans wan_fanout's shapes over
// eight fragments that map alike and holds each scan past the first to
// the one before it: its own struct, source and fragment, and that
// one's query, layout and partial aggregate — the same arrays,
// expressions and schema, after every rewrite Optimize runs.
func TestAlikeScansShareTheirTranslation(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, s := range fanoutShapes {
		n, err := planOnce(cat, s.sql, s.params)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		scans := FragScans(findUnion(n))
		if len(scans) != 8 {
			t.Fatalf("%s: want a union of 8 fragment scans:\n%s", s.name, Explain(n))
		}
		for i, fs := range scans[1:] {
			prev := scans[i]
			q, pq := fs.Query, prev.Query
			switch {
			case fs == prev || fs.Src == prev.Src || fs.Frag == prev.Frag:
				t.Errorf("%s: scan %d is not a scan of its own fragment", s.name, i+1)
			case fs.like != prev:
				t.Errorf("%s: scan %d does not follow the one before it", s.name, i+1)
			case q.Filter != pq.Filter || fs.GlobalResidual != prev.GlobalResidual || fs.OutSchema != prev.OutSchema,
				!sameArray(q.Columns, pq.Columns) || !sameArray(q.GroupBy, pq.GroupBy) || !sameArray(q.Aggs, pq.Aggs),
				!sameArray(fs.Cols, prev.Cols) || !sameArray(fs.Pos, prev.Pos) || !sameArray(fs.Out, prev.Out) || !sameArray(fs.Aggs, prev.Aggs):
				t.Errorf("%s: scan %d has a translation of its own:\n%s", s.name, i+1, Explain(n))
			}
		}
		if s.name == "group_by" && !scans[7].Query.HasAggregation() {
			t.Errorf("%s: the aggregate is not pushed:\n%s", s.name, Explain(n))
		}
	}
}

// weakSource is a relstore that says it filters nothing: a fragment on
// it maps as one on the store would, but its source is not as capable.
type weakSource struct{ *relstore.Store }

func (weakSource) Capabilities() source.Capabilities {
	return source.Capabilities{Project: true}
}

// TestScansThatDoNotMapAlikeTranslateAlone maps one table over five
// fragments, each differing from the one before it in at most one
// thing: two alike, one whose remote table has its columns the other way
// round, one alike that, and one alike that too but on a source that
// filters nothing. A scan follows the one before it only where their
// fragments map alike and their sources are as capable; each other scan
// is asked what its own mapping and source say.
func TestScansThatDoNotMapAlikeTranslateAlone(t *testing.T) {
	ctx := context.Background()
	global := types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindString},
	)
	reversed := types.NewSchema(global.Columns[1], global.Columns[0])
	cat := catalog.New()
	if err := cat.DefineTable("t", global); err != nil {
		t.Fatal(err)
	}
	straight, crossed := []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}}, []catalog.ColumnMapping{{RemoteCol: 1}, {RemoteCol: 0}}
	for i, f := range []struct {
		schema *types.Schema
		weak   bool
		cols   []catalog.ColumnMapping
	}{
		{global, false, straight},
		{global, false, straight},
		{reversed, false, crossed},
		{reversed, false, crossed},
		{reversed, true, crossed},
	} {
		st := relstore.New(fmt.Sprintf("s%d", i))
		if err := st.CreateTable("t", f.schema, 0); err != nil {
			t.Fatal(err)
		}
		var src source.Source = st
		if f.weak {
			src = weakSource{st}
		}
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapFragment(ctx, "t", &catalog.Fragment{Source: st.Name(), RemoteTable: "t", Columns: slices.Clone(f.cols)}); err != nil {
			t.Fatal(err)
		}
	}
	n := planQuery(t, cat, "SELECT b FROM t WHERE a < 5", nil)
	scans := FragScans(findUnion(n))
	if len(scans) != 5 {
		t.Fatalf("want a union of 5 fragment scans:\n%s", Explain(n))
	}
	want := []struct {
		follows bool
		scan    string
	}{
		{false, "FragScan s0.t [scan t where (a < 5) cols[1]]"},
		{true, "FragScan s1.t [scan t where (a < 5) cols[1]]"},
		{false, "FragScan s2.t [scan t where (a < 5) cols[0]]"},
		{true, "FragScan s3.t [scan t where (a < 5) cols[0]]"},
		{false, "FragScan s4.t [scan t cols[1 0]] globalFilter=(a < 5)"},
	}
	for i, fs := range scans {
		if follows := i > 0 && fs.like == scans[i-1]; follows != want[i].follows {
			t.Errorf("scan %d follows the one before it: %v, want %v", i, follows, want[i].follows)
		}
		if got := fs.Describe(); got != want[i].scan {
			t.Errorf("scan %d is %q, want %q", i, got, want[i].scan)
		}
	}
}

// TestUnionNDVCappedByIntSpan reads the NDV of each column of a table
// over eight fragments: MergeNDV of theirs, but for an INT column no
// more than the values between its least and greatest. cust_id takes
// 500 of [0, 1999] in each fragment, which MergeNDV would put at 2 250;
// oid takes fragments' disjoint ranges of 500 in [0, 3999], where the
// cap does not bind; a STRING and a FLOAT column are not capped.
func TestUnionNDVCappedByIntSpan(t *testing.T) {
	ctx := context.Background()
	schema := types.NewSchema(
		types.Column{Name: "oid", Type: types.KindInt},
		types.Column{Name: "cust_id", Type: types.KindInt},
		types.Column{Name: "amount", Type: types.KindFloat},
		types.Column{Name: "region", Type: types.KindString},
	)
	cat := catalog.New()
	if err := cat.DefineTable("spread", schema); err != nil {
		t.Fatal(err)
	}
	const parts, per = 8, 500
	for p := range parts {
		st := relstore.New(fmt.Sprintf("p%d", p))
		rows := make([]types.Row, per)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(p*per + i)), types.NewInt(int64((4*i + p) % 2000)),
				types.NewFloat(float64(i*p%300) + 0.5), types.NewString(fmt.Sprintf("r%d", (i+p)%40))}
		}
		if err := st.CreateTable("spread", schema, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Insert(ctx, "spread", rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(st); err != nil {
			t.Fatal(err)
		}
		frag := &catalog.Fragment{Source: st.Name(), RemoteTable: "spread",
			Columns: []catalog.ColumnMapping{{RemoteCol: 0}, {RemoteCol: 1}, {RemoteCol: 2}, {RemoteCol: 3}}}
		if err := cat.MapFragment(ctx, "spread", frag); err != nil {
			t.Fatal(err)
		}
		ts, err := st.Stats("spread")
		if err != nil {
			t.Fatal(err)
		}
		frag.SetStats(ts)
	}
	u := findUnion(planQuery(t, cat, "SELECT oid, cust_id, amount, region FROM spread", nil))
	if u == nil || len(FragScans(u)) != parts {
		t.Fatalf("want a union of %d fragment scans", parts)
	}
	for col, want := range []float64{-1, 2000, -1, -1} { // -1: MergeNDV's
		var merged int64
		for _, fs := range FragScans(u) {
			merged = stats.MergeNDV(merged, fs.Frag.Stats().Columns[col].NDV)
		}
		if want < 0 {
			want = float64(merged)
		}
		if got := ndv(u, col); got != want {
			t.Errorf("%s: NDV %g over the union, want %g (MergeNDV %d)", schema.Columns[col].Name, got, want, merged)
		}
	}
	// A filter only takes values away: the bound holds of what passes.
	p := planQuery(t, cat, "SELECT cust_id FROM spread WHERE region <> 'r1'", nil)
	if u := findUnion(p); u == nil || ndv(u, 0) != 2000 {
		t.Errorf("a filtered union of plain copies: want the cap to hold:\n%s", Explain(p))
	}
}
