package wire

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// sampleValues, sampleExprs and sampleQueries are the round-trip cases;
// FuzzDecoder seeds its corpus with their encodings.
func sampleValues() []types.Value {
	return []types.Value{
		types.Null,
		types.NewBool(true),
		types.NewBool(false),
		types.NewInt(0),
		types.NewInt(-12345678901),
		types.NewFloat(3.14159),
		types.NewString(""),
		types.NewString("héllo wörld"),
		types.NewBytes([]byte{0, 1, 2, 255}),
		types.NewTime(time.Date(2021, 6, 1, 12, 0, 0, 123456789, time.UTC)),
		// Sentinel dates outside what one int64 of nanoseconds holds.
		types.NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
		types.NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		types.NewTime(time.Unix(0, -1)),
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := sampleValues()
	var e Encoder
	for _, v := range vals {
		e.Value(v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		got, err := d.Value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("value %d: got %v (%s), want %v (%s)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

func TestRowSchemaRoundTrip(t *testing.T) {
	row := types.Row{types.NewInt(1), types.Null, types.NewString("x")}
	schema := types.NewSchema(
		types.Column{Table: "t", Name: "a", Type: types.KindInt},
		types.Column{Name: "b", Type: types.KindFloat, Nullable: true},
	)
	var e Encoder
	e.Row(row)
	e.Schema(schema)
	d := NewDecoder(e.Bytes())
	gotRow, err := d.Row()
	if err != nil || !gotRow.Equal(row) {
		t.Errorf("row round trip: %v, %v", gotRow, err)
	}
	gotSchema, err := d.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.Len() != 2 || gotSchema.Columns[0].Table != "t" ||
		gotSchema.Columns[1].Type != types.KindFloat || !gotSchema.Columns[1].Nullable {
		t.Errorf("schema round trip: %+v", gotSchema)
	}
}

func sampleExprs() []expr.Expr {
	return []expr.Expr{
		nil,
		expr.NewBoundColRef(2, types.KindInt, "a"),
		expr.NewConst(types.NewString("lit")),
		expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, expr.NewBoundColRef(0, types.KindInt, "x"), expr.NewConst(types.NewInt(5))),
			expr.NewBinary(expr.OpLike, expr.NewBoundColRef(1, types.KindString, "s"), expr.NewConst(types.NewString("a%")))),
		expr.NewUnary(expr.OpNot, expr.NewConst(types.NewBool(false))),
		&expr.IsNull{E: expr.NewBoundColRef(0, types.KindInt, "x"), Negate: true},
		&expr.InList{E: expr.NewBoundColRef(0, types.KindInt, "x"),
			List: []expr.Expr{expr.NewConst(types.NewInt(1)), expr.NewConst(types.NewInt(2))}, Negate: true},
		&expr.Case{
			Operand: expr.NewBoundColRef(0, types.KindInt, "x"),
			Whens:   []expr.When{{Cond: expr.NewConst(types.NewInt(1)), Then: expr.NewConst(types.NewString("one"))}},
			Else:    expr.NewConst(types.NewString("other")),
		},
		&expr.Cast{E: expr.NewBoundColRef(0, types.KindInt, "x"), To: types.KindString},
		expr.NewCall("ABS", expr.NewBoundColRef(0, types.KindInt, "x")),
	}
}

func TestExprRoundTrip(t *testing.T) {
	for _, want := range sampleExprs() {
		var e Encoder
		if err := e.Expr(want); err != nil {
			t.Fatalf("encode %v: %v", want, err)
		}
		got, err := NewDecoder(e.Bytes()).Expr()
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if !expr.Equal(got, want) {
			t.Errorf("expr round trip: got %v, want %v", got, want)
		}
	}
	// Subqueries cannot travel.
	var e Encoder
	if err := e.Expr(&expr.Subquery{}); err == nil {
		t.Error("subquery encode must fail")
	}
}

func sampleQueries() []*source.Query {
	return []*source.Query{
		source.NewScan("t"),
		{
			Table:   "t",
			Columns: []int{2, 0},
			Filter:  expr.NewBinary(expr.OpGt, expr.NewBoundColRef(0, types.KindInt, "a"), expr.NewConst(types.NewInt(3))),
			Limit:   10,
		},
		{
			Table:   "t",
			GroupBy: []int{1},
			Aggs: []source.AggSpec{
				{Kind: expr.AggCount, Star: true},
				{Kind: expr.AggSum, Col: 2, Distinct: true},
			},
			OrderBy: []source.OrderSpec{{Col: 0, Desc: true}},
			Limit:   -1,
		},
		{Table: "t", Columns: []int{}, Limit: -1}, // empty but non-nil projection
	}
}

func TestQueryRoundTrip(t *testing.T) {
	for _, want := range sampleQueries() {
		var e Encoder
		if err := e.Query(want); err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(e.Bytes()).Query()
		if err != nil {
			t.Fatalf("decode %s: %v", want, err)
		}
		if got.String() != want.String() {
			t.Errorf("query round trip:\n got %s\nwant %s", got, want)
		}
		if (got.Columns == nil) != (want.Columns == nil) {
			t.Errorf("nil-ness of Columns lost: %v vs %v", got.Columns, want.Columns)
		}
	}
}

func TestDecoderTruncation(t *testing.T) {
	var e Encoder
	e.Query(&source.Query{Table: "table_with_a_long_name", Limit: -1})
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := NewDecoder(full[:cut]).Query(); err == nil {
			t.Fatalf("truncated query at %d decoded without error", cut)
		}
	}
}

func TestDecoderGarbage(t *testing.T) {
	if _, err := NewDecoder([]byte{0xff, 0xff}).Value(); err == nil {
		t.Error("garbage value tag must error")
	}
	if _, err := NewDecoder([]byte{0xee}).Expr(); err == nil {
		t.Error("garbage expr tag must error")
	}
	var e Encoder
	e.Byte(byte(types.KindTime))
	e.Varint(0)
	e.Uvarint(1e9)
	if _, err := NewDecoder(e.Bytes()).Value(); err == nil {
		t.Error("TIME with 1e9 nanoseconds must error")
	}
	// A BYTES length of 2^63 or more is negative as an int.
	if _, err := NewDecoder(hostileBytesLength).Value(); err == nil {
		t.Error("BYTES longer than the payload must error")
	}
	// A tree nested past maxNesting must fail, not overflow the stack;
	// one nested just short of it decodes.
	if _, err := NewDecoder(nestedNots(maxNesting + 1)).Expr(); err == nil {
		t.Errorf("an expression %d levels deep must error", maxNesting+1)
	}
	if _, err := NewDecoder(nestedNots(maxNesting - 1)).Expr(); err != nil {
		t.Errorf("an expression %d levels deep: %v", maxNesting-1, err)
	}
	// A row count or a width the payload cannot hold must fail before
	// anything is allocated for it.
	for _, hostile := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},       // 2^32-1 rows, no bytes
		{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}, // one row of 2^32-1 values
	} {
		if _, _, err := NewDecoder(hostile).rowBatch(nil, nil); err == nil {
			t.Errorf("rowBatch(% x) must error", hostile)
		}
	}
}

// hostileBytesLength is a BYTES value claiming 2^64-1 bytes.
var hostileBytesLength = []byte{byte(types.KindBytes), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// nestedNots encodes NOT(NOT(...NOT(nil))), depth levels in all.
func nestedNots(depth int) []byte {
	var e Encoder
	for i := 1; i < depth; i++ {
		e.Byte(exTagUnary)
		e.Byte(byte(expr.OpNot))
	}
	e.Byte(exTagNil)
	return e.Bytes()
}

// frameOf encodes rows as one msgRows payload.
func frameOf(rows []types.Row) []byte {
	var e Encoder
	mark := e.beginRows()
	for _, r := range rows {
		e.Row(r)
	}
	return e.endRows(mark, len(rows))
}

// TestRowBatchRowsDoNotAlias: the rows of one frame share a slab, so
// each must be cut to its own length, and a frame decoded later into
// the same slot array must not disturb rows already handed out.
func TestRowBatchRowsDoNotAlias(t *testing.T) {
	mk := func(base, n, width int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = make(types.Row, width)
			for j := range rows[i] {
				rows[i][j] = types.NewInt(int64(base + i*width + j))
			}
		}
		return rows
	}
	first := mk(0, 8, 3)
	batch, _, err := NewDecoder(frameOf(first)).rowBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]types.Row(nil), batch...)
	for i, r := range kept {
		if cap(r) != len(r) {
			t.Errorf("row %d: cap %d != len %d", i, cap(r), len(r))
		}
	}
	for i := range kept {
		_ = append(kept[i], types.NewString("intruder"))
	}
	// The next frame reuses the slot array, not the slab.
	second, _, err := NewDecoder(frameOf(mk(1000, 8, 3))).rowBatch(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != &batch[0] {
		t.Error("slot array was not reused")
	}
	for i, r := range kept {
		if !r.Equal(first[i]) {
			t.Errorf("row %d = %v after append and next frame, want %v", i, r, first[i])
		}
	}

	// Rows of unequal width (no source sends them, the format allows
	// them): narrower, empty and wider rows all decode intact.
	ragged := []types.Row{mk(0, 1, 2)[0], {}, mk(10, 1, 1)[0], mk(20, 1, 5)[0], mk(30, 1, 5)[0]}
	got, _, err := NewDecoder(frameOf(ragged)).rowBatch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if !r.Equal(ragged[i]) || cap(r) != len(r) || r == nil {
			t.Errorf("ragged row %d = %v (cap %d), want %v", i, r, cap(r), ragged[i])
		}
	}
}

// Property: every int/string row round-trips.
func TestRowRoundTripProperty(t *testing.T) {
	f := func(a int64, s string, b bool, fl float64) bool {
		row := types.Row{types.NewInt(a), types.NewString(s), types.NewBool(b), types.NewFloat(fl), types.Null}
		var e Encoder
		e.Row(row)
		got, err := NewDecoder(e.Bytes()).Row()
		if err != nil {
			return false
		}
		// NaN breaks Equal; compare kinds then values loosely.
		if fl != fl {
			return got[3].Kind() == types.KindFloat
		}
		return got.Equal(row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimLinkDelay(t *testing.T) {
	l := SimLink{Latency: 10 * time.Millisecond}
	start := time.Now()
	if err := l.delay(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}
	// Bandwidth: 1 KiB at 1 MiB/s ≈ 1ms.
	l = SimLink{BytesPerSec: 1 << 20}
	start = time.Now()
	if err := l.delay(ctx, 1<<10); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 900*time.Microsecond {
		t.Errorf("bandwidth not applied: %v", d)
	}
	// Zero link must not sleep measurably.
	l = SimLink{}
	start = time.Now()
	if err := l.delay(ctx, 1<<20); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Errorf("zero link slept: %v", d)
	}
	// A cancelled context stops the sleep immediately.
	l = SimLink{Latency: 5 * time.Second}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	start = time.Now()
	if err := l.delay(cctx, 100); err == nil {
		t.Error("delay ignored the cancelled context")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled delay still slept %v", d)
	}
}
