package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/expr"
	"gis/internal/obs"
	"gis/internal/source"
	"gis/internal/types"
)

// A fuzzBody is one message body a peer can send: decode reads it from
// the payload and returns a function that encodes what was read.
type fuzzBody struct {
	name   string
	decode func(d *Decoder) (encode func(e *Encoder) error, err error)
}

func fuzzWriteReq(tag byte) func(d *Decoder) (func(*Encoder) error, error) {
	return func(d *Decoder) (func(*Encoder) error, error) {
		w, err := d.writeReq(tag)
		return func(e *Encoder) error { return e.writeReq(tag, &w) }, err
	}
}

var fuzzBodies = []fuzzBody{
	{"Value", func(d *Decoder) (func(*Encoder) error, error) {
		v, err := d.Value()
		return func(e *Encoder) error { e.Value(v); return nil }, err
	}},
	{"Row", func(d *Decoder) (func(*Encoder) error, error) {
		r, err := d.Row()
		return func(e *Encoder) error { e.Row(r); return nil }, err
	}},
	{"rowBatch", func(d *Decoder) (func(*Encoder) error, error) {
		return scribbled(d, func(d *Decoder) ([]types.Row, error) {
			rows, _, err := d.rowBatch(nil, nil)
			return rows, err
		})
	}},
	{"Schema", func(d *Decoder) (func(*Encoder) error, error) {
		s, err := d.Schema()
		return func(e *Encoder) error { e.Schema(s); return nil }, err
	}},
	{"Expr", func(d *Decoder) (func(*Encoder) error, error) {
		x, err := d.Expr()
		return func(e *Encoder) error { return e.Expr(x) }, err
	}},
	// A msgExecute payload: the header, the query.
	{"Execute", func(d *Decoder) (func(*Encoder) error, error) {
		h, err := d.execHeader()
		if err != nil {
			return nil, err
		}
		q, err := d.Query()
		return func(e *Encoder) error {
			e.execHeader(h)
			return e.Query(q)
		}, err
	}},
	{"hello", func(d *Decoder) (func(*Encoder) error, error) {
		h, err := d.hello()
		return func(e *Encoder) error { e.hello(h); return nil }, err
	}},
	{"helloReply", func(d *Decoder) (func(*Encoder) error, error) {
		h, err := d.helloReply()
		return func(e *Encoder) error { e.helloReply(h); return nil }, err
	}},
	// The three write requests, which share a codec switched by tag.
	{"insert", fuzzWriteReq(msgInsert)},
	{"update", fuzzWriteReq(msgUpdate)},
	{"delete", fuzzWriteReq(msgDelete)},
	// A msgEnd payload, as the client reads it: empty, or a span subtree.
	{"footer", func(d *Decoder) (func(*Encoder) error, error) {
		if d.Remaining() == 0 {
			return func(*Encoder) error { return nil }, nil
		}
		sp, err := d.Span()
		return func(e *Encoder) error { e.Span(sp); return nil }, err
	}},
	// A msgErr payload, which may carry a typed overload error.
	{"OverloadError", func(d *Decoder) (func(*Encoder) error, error) {
		msg, err := d.String()
		if err != nil {
			return nil, err
		}
		if oe, ok := admission.ParseWireError(msg); ok {
			msg = oe.MarshalWire()
		}
		return func(e *Encoder) error { e.String(msg); return nil }, nil
	}},
	// The rowBatch body as a lending stream decodes it: over the slot
	// array, the slab and the string scratch of the frame before, here
	// three two-column rows. Last, so that the corpus keeps its kind
	// numbers.
	{"rowBatch over a reused slab", func(d *Decoder) (func(*Encoder) error, error) {
		before := []types.Row{{types.NewInt(1), types.NewString("a")}, {types.Null, types.NewInt(2)}, {types.NewInt(3), types.NewInt(4)}}
		var strs stringScratch
		batch, slab, err := (&Decoder{buf: frameOf(before), strs: &strs}).rowBatch(nil, nil)
		if err != nil {
			return nil, err
		}
		return scribbled(d, func(d *Decoder) ([]types.Row, error) {
			d.strs = &strs
			rows, _, err := d.rowBatch(batch, slab)
			return rows, err
		})
	}},
}

// scribbled decodes a frame with decode from a copy of what is left of
// d, then overwrites every byte of the copy with its complement, as the
// next frame read into a connection's buffer overwrites the one before.
// A value that still points into its frame reads the complement of its
// bytes, and of those the next round, so the two encodings differ and
// the fixed-point check fails. (A constant fill would not: both rounds
// would read the fill.)
func scribbled(d *Decoder, decode func(*Decoder) ([]types.Row, error)) (func(*Encoder) error, error) {
	frame := bytes.Clone(d.buf[d.pos:])
	rows, err := decode(NewDecoder(frame))
	for i := range frame {
		frame[i] = ^frame[i]
	}
	return encodeFrame(rows), err
}

func encodeFrame(rows []types.Row) func(*Encoder) error {
	return func(e *Encoder) error {
		e.Uvarint(uint64(len(rows)))
		for _, r := range rows {
			e.Row(r)
		}
		return nil
	}
}

// fuzzSeeds encodes the codec tests' round-trip cases, one payload per
// body kind.
func fuzzSeeds(t testing.TB) map[string][][]byte {
	seeds := map[string][][]byte{}
	add := func(kind string, fill func(e *Encoder) error) {
		var e Encoder
		if err := fill(&e); err != nil {
			t.Fatal(err)
		}
		seeds[kind] = append(seeds[kind], bytes.Clone(e.Bytes()))
	}
	for _, v := range sampleValues() {
		add("Value", func(e *Encoder) error { e.Value(v); return nil })
	}
	add("Row", func(e *Encoder) error { e.Row(sampleValues()); return nil })
	add("Row", func(e *Encoder) error { e.Row(nil); return nil })
	seeds["rowBatch"] = append(seeds["rowBatch"],
		frameOf([]types.Row{sampleValues(), {types.NewInt(1)}, {}, sampleValues()[:4]}),
		frameOf(nil),
		[]byte{0xff, 0xff, 0xff, 0xff, 0x0f},       // 2^32-1 rows, no bytes
		[]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x0f}) // one row of 2^32-1 values
	seeds["rowBatch over a reused slab"] = seeds["rowBatch"]
	add("Schema", func(e *Encoder) error {
		e.Schema(types.NewSchema(
			types.Column{Table: "t", Name: "a", Type: types.KindInt},
			types.Column{Name: "b", Type: types.KindFloat, Nullable: true}))
		return nil
	})
	for _, x := range sampleExprs() {
		add("Expr", func(e *Encoder) error { return e.Expr(x) })
	}
	seeds["Expr"] = append(seeds["Expr"], nestedNots(maxNesting+1), nestedNots(64))
	seeds["Value"] = append(seeds["Value"], hostileBytesLength)
	for i, q := range sampleQueries() {
		add("Execute", func(e *Encoder) error {
			h := execHeader{Budget: time.Duration(i) * time.Second}
			if i%2 == 0 {
				h.TraceID, h.ParentSpan = "4bf92f3577b34da6", 7
			}
			e.execHeader(h)
			return e.Query(q)
		})
	}
	add("hello", func(e *Encoder) error {
		e.hello(&hello{Version: helloVersion, Tenant: "tenant-a", MaxRead: 1 << 20})
		return nil
	})
	add("hello", func(e *Encoder) error {
		e.hello(&hello{Version: helloVersion, MaxRead: 1 << 24, Describe: true})
		return nil
	})
	add("helloReply", func(e *Encoder) error {
		e.helloReply(&helloReply{MaxRead: 1 << 24,
			Caps: source.Capabilities{Filter: source.FilterKey, Project: true, Limit: true, Txn: true}})
		return nil
	})
	add("helloReply", func(e *Encoder) error {
		keyed := types.NewSchema(
			types.Column{Name: "id", Type: types.KindInt},
			types.Column{Name: "note", Type: types.KindString, Nullable: true})
		e.helloReply(&helloReply{MaxRead: 1 << 20, Caps: source.Capabilities{Filter: source.FilterFull, Write: true},
			Tables: []describedTable{
				{Name: "accounts", Info: &source.TableInfo{Schema: keyed, KeyColumns: []int{0}, RowCount: 1200}},
				{Name: "log", Info: &source.TableInfo{Schema: types.NewSchema(types.Column{Table: "log", Name: "at", Type: types.KindTime}), RowCount: -1}},
			}})
		return nil
	})
	add("insert", func(e *Encoder) error {
		return e.writeReq(msgInsert, &writeReq{Table: "accounts", Rows: []types.Row{sampleValues(), {types.NewInt(1)}, {}}})
	})
	seeds["insert"] = append(seeds["insert"],
		[]byte{0x01, 't', 0xff, 0xff, 0xff, 0xff, 0x0f}) // table "t", 2^32-1 rows, no bytes
	for _, x := range sampleExprs() {
		add("update", func(e *Encoder) error {
			return e.writeReq(msgUpdate, &writeReq{Table: "accounts", Filter: x,
				Set: []source.SetClause{{Col: 1, Value: x}, {Col: 0, Value: expr.NewConst(types.NewFloat(1.5))}}})
		})
		add("delete", func(e *Encoder) error { return e.writeReq(msgDelete, &writeReq{Table: "accounts", Filter: x}) })
	}
	seeds["update"] = append(seeds["update"],
		[]byte{0x01, 't', 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}) // table "t", no filter, 2^32-1 SET clauses
	seeds["footer"] = append(seeds["footer"], nil) // an untraced stream's
	add("footer", func(e *Encoder) error {
		e.Span(&obs.SpanData{Kind: "remote", Name: "src", Start: time.UnixMicro(1700000000000000), DurationUS: 1234,
			Attrs: []obs.Attr{{Key: "rows", Value: "3"}},
			Children: []*obs.SpanData{
				{Kind: "exec", Name: "scan t", DurationUS: 1000},
				{Kind: "stream", Attrs: []obs.Attr{{Key: "bytes", Value: "96"}}},
			}})
		return nil
	})
	for _, msg := range []string{
		(&admission.OverloadError{Tenant: "t1", Reason: admission.ReasonQueueFull, Retryable: true, RetryAfter: 40 * time.Millisecond}).MarshalWire(),
		"!overload;", "!overload;deadline;;0;-5", "relstore src: unknown table \"t\"",
	} {
		add("OverloadError", func(e *Encoder) error { e.String(msg); return nil })
	}
	return seeds
}

// FuzzDecoder feeds arbitrary bytes to every decoder that reads what a
// peer sent. Whatever the bytes: no panic; no allocation out of
// proportion to the payload (a count or a width is checked against the
// bytes left before anything is made for it); and what does decode is a
// fixed point — encoding it and decoding that encodes to the same bytes.
func FuzzDecoder(f *testing.F) {
	seeds := fuzzSeeds(f)
	for kind, body := range fuzzBodies {
		for _, seed := range seeds[body.name] {
			f.Add(uint8(kind), seed)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		body := fuzzBodies[int(kind)%len(fuzzBodies)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encode, err := body.decode(NewDecoder(data))
		runtime.ReadMemStats(&after)
		// The widest thing a byte can stand for is a 32-byte NULL Value
		// or a tree node of a few words; the slack covers the runtime's
		// own background allocation.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(512*len(data)+1<<16); got > bound {
			t.Fatalf("%s: decoding %d bytes allocated %d (bound %d)", body.name, len(data), got, bound)
		}
		if err != nil {
			return
		}
		var first Encoder
		if err := encode(&first); err != nil {
			t.Fatalf("%s: decoded % x but cannot encode it: %v", body.name, data, err)
		}
		again, err := body.decode(NewDecoder(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: own encoding % x of % x does not decode: %v", body.name, first.Bytes(), data, err)
		}
		var second Encoder
		if err := again(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: not a fixed point:\n % x\n % x", body.name, first.Bytes(), second.Bytes())
		}
	})
}
