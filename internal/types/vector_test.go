package types

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// vectorCorpus is, per kind, the values a vector of it must keep: the
// edges of each payload, NULLs among them.
func vectorCorpus() map[Kind][]Value {
	nan := NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))
	return map[Kind][]Value{
		KindNull:   {Null, Null},
		KindBool:   {NewBool(true), Null, NewBool(false)},
		KindInt:    {NewInt(0), NewInt(math.MinInt64), Null, NewInt(math.MaxInt64), NewInt(-1)},
		KindFloat:  {NewFloat(math.Copysign(0, -1)), NewFloat(0), nan, NewFloat(math.NaN()), Null, NewFloat(math.Inf(-1)), NewFloat(5e-324)},
		KindString: {NewString(""), NewString("ü\x00x"), Null, NewString(strings.Repeat("s", 300))},
		KindBytes:  {NewBytes(nil), NewBytes([]byte{0, 1, 255}), Null, NewBytesOf("east")},
		KindTime: {
			NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)), NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
			Null, NewTime(time.Unix(-1, 1)), NewTime(time.Unix(1700000000, 123456789)),
		},
	}
}

// checkVector holds v to model, value by value.
func checkVector(t *testing.T, name string, v *Vector, model []Value) {
	t.Helper()
	if v.Len() != len(model) {
		t.Fatalf("%s: %d values, want %d", name, v.Len(), len(model))
	}
	for i, want := range model {
		if got := v.At(i); !Identical(got, want) || !v.Holds(i, want) {
			t.Fatalf("%s: value %d = %#v, want %#v", name, i, got, want)
		}
	}
	for i := len(model); i < 64*len(v.nulls); i++ {
		if v.nulls[i>>6]&(1<<(i&63)) != 0 {
			t.Fatalf("%s: NULL bit %d is set past the end, %d", name, i, len(model))
		}
	}
}

// A vector of each kind hands back what it was given, bit for bit, over
// more than one word of its NULL bitmap; a value overwritten — a NULL by
// a value and a value by a NULL — reads as written; a grown vector and a
// clone read as the original, and a write to the clone leaves the
// original alone.
func TestVectorRoundTrip(t *testing.T) {
	for kind, vals := range vectorCorpus() {
		v := NewVector(kind)
		var model []Value
		for i := 0; i < 150; i++ {
			x := vals[i%len(vals)]
			v.Append(x)
			model = append(model, x)
		}
		checkVector(t, kind.String(), &v, model)
		for i := range model {
			x := vals[(i*7+3)%len(vals)]
			v.Set(i, x)
			model[i] = x
		}
		checkVector(t, kind.String()+" after Set", &v, model)
		v.Grow(1000)
		if v.Cap() < v.Len()+1000 {
			t.Errorf("%s: Grow(1000) left room for %d", kind, v.Cap()-v.Len())
		}
		checkVector(t, kind.String()+" grown", &v, model)
		c := v.Clone()
		checkVector(t, kind.String()+" clone", &c, model)
		c.Set(0, Null)
		c.Set(130, vals[0])
		c.Append(vals[len(vals)-1])
		checkVector(t, kind.String()+" after writes to its clone", &v, model)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an INT appended to a STRING vector did not panic")
			}
		}()
		v := NewVector(KindString)
		v.Append(NewInt(1))
	}()
}

// FuzzVector decodes from its input a kind and a sequence of appends,
// sets, clones, inserts and removes over the vectors of that kind it has
// made, and holds every vector after every operation to a []Value model
// of it, FLOAT by its bits. A clone is a new vector with a copy of its
// original's model, so a write to either that reaches the other fails.
func FuzzVector(f *testing.F) {
	// Seventy NULLs, then a value inserted and removed at the front and
	// a NULL at 63: the bitmap's bits move across its word boundary.
	cross := []byte{byte(KindInt)}
	for range 70 {
		cross = append(cross, 0, 0, 0)
	}
	cross = append(cross, 3, 0, 0, 1, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 63, 0, 4, 0, 0, 4, 0, 64, 2, 0, 4, 1, 5)
	f.Add(cross)
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 0, 1, 0, 0, 0})
	f.Add([]byte{6, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9, 2, 0, 1, 1, 0, 0})
	f.Add([]byte("\x04append set clone; strings of every length and NULLs between them"))
	f.Add([]byte{1, 0, 5, 0, 1, 0, 0, 2, 0, 1, 1, 1, 0})
	// Strings next to each other in the block, empty ones, and a last
	// one, empty or not, that ends where the block does.
	f.Add([]byte("\x04\x00\x00\x01\x03abc\x00\x00\x01\x00\x03\x00\x00\x01\x02de\x01\x00\x01\x01\x03fgh\x00\x00\x01\x04ijkl\x00\x00\x01\x00"))
	f.Add([]byte("\x05\x00\x00\x01\x02\x00\xff\x00\x00\x01\x00\x02\x00\x00\x01\x01\x01z"))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		block := string(in)
		kind := Kind(in[0] % 7)
		in = in[1:]
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// text takes the next n bytes as a string cut from block, as
		// wire's decoder cuts a frame's strings from one block; past the
		// end of the input it reads zeros, as next does.
		text := func(n int) string {
			at := len(block) - len(in)
			if n > len(in) {
				s := block[at:] + strings.Repeat("\x00", n-len(in))
				in = nil
				return s
			}
			in = in[n:]
			return block[at : at+n]
		}
		word := func() uint64 {
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		value := func() Value {
			if next()%5 == 0 || kind == KindNull {
				return Null
			}
			switch kind {
			case KindBool:
				return NewBool(next()%2 == 1)
			case KindInt:
				return NewInt(int64(word()))
			case KindFloat:
				return NewFloat(math.Float64frombits(word()))
			case KindTime:
				return newUnixTime(int64(word()), uint32(word()%1e9))
			}
			s := text(int(next() % 40))
			if kind == KindBytes {
				return NewBytesOf(s)
			}
			return NewString(s)
		}
		vecs, models := []*Vector{{kind: kind}}, [][]Value{nil}
		for steps := 0; len(in) > 0 && steps < 200; steps++ {
			op, at := next()%5, int(next())%len(vecs)
			v := vecs[at]
			switch op {
			case 0:
				x := value()
				v.Append(x)
				models[at] = append(models[at], x)
			case 1:
				if v.Len() == 0 {
					continue
				}
				i, x := int(next())%v.Len(), value()
				v.Set(i, x)
				models[at][i] = x
			case 2:
				c := v.Clone()
				vecs, models = append(vecs, &c), append(models, append([]Value(nil), models[at]...))
			case 3:
				i, x := int(next())%(v.Len()+1), value()
				v.Insert(i, x)
				models[at] = slices.Insert(models[at], i, x)
			case 4:
				if v.Len() == 0 {
					continue
				}
				i := int(next()) % v.Len()
				v.Remove(i)
				models[at] = slices.Delete(models[at], i, i+1)
			}
			for j, v := range vecs {
				checkVector(t, "vector "+string(rune('a'+j%26)), v, models[j])
			}
		}
	})
}
