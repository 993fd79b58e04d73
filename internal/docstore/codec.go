package docstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"gis/internal/types"
)

// A stored document is one immutable string: the document in a compact
// binary encoding. Every value opens with a tag byte.
//
//	tagNull, tagFalse, tagTrue  the tag alone
//	tagInt                      8 bytes, the int64, little-endian
//	tagFloat                    8 bytes, the float64's bits, little-endian
//	tagString                   uvarint byte length, the bytes
//	tagArray                    uvarint count, uvarint byte length, the elements
//	tagObject                   uvarint count, uvarint byte length, the entries
//
// An object's entry is its key, as a uvarint index into the collection's
// key table, and then its value. Entries are in key order, so in a given
// table a document has one encoding. The byte length of an array or an
// object (of what follows it) lets a walk step over it in O(1): finding a
// path reads no more than the keys and the lengths on the way.
//
// Whether a number is INT or FLOAT is decided once, at insert: a float64
// holding an integer is INT, so that key joins behave, and a json.Number
// is INT when it parses as an int64.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagInt
	tagFloat
	tagString
	tagArray
	tagObject
)

// keyTable interns a collection's object keys. It only grows, and only
// under the store's write lock; a scan never reads it, because a
// compiled path holds key indexes.
type keyTable struct {
	names []string
	index map[string]uint64
}

func (t *keyTable) intern(k string) uint64 {
	i, ok := t.index[k]
	if !ok {
		i = uint64(len(t.names))
		t.names = append(t.names, k)
		t.index[k] = i
	}
	return i
}

// isInt reports whether a float64 is stored as INT.
func isInt(f float64) bool { return f == float64(int64(f)) }

// encoder writes the documents of one collection. It is used under the
// store's write lock and keeps its buffers from one document to the next.
type encoder struct {
	keys    *keyTable
	buf     []byte
	entries []entry // of the objects being written, innermost last
	// last holds the keys of the document encoded last, in the order they
	// were written, and nth counts this one's so far. The documents of a
	// collection mostly share a shape, and comparing a key with the one
	// in its place last time costs less than looking it up.
	last []interned
	nth  int
}

type interned struct {
	name string
	i    uint64
}

type entry struct {
	key string
	v   any
}

// encode returns doc's encoding, or what in it encoding/json would not
// have produced.
func (e *encoder) encode(doc map[string]any) (string, error) {
	e.buf, e.entries, e.nth = e.buf[:0], e.entries[:0], 0
	if bad := e.object(doc); bad != nil {
		return "", bad
	}
	return string(e.buf), nil
}

func (e *encoder) value(v any) *badValue {
	switch v := v.(type) {
	case nil:
		e.buf = append(e.buf, tagNull)
	case bool:
		tag := tagFalse
		if v {
			tag = tagTrue
		}
		e.buf = append(e.buf, tag)
	case float64:
		if isInt(v) {
			e.number(tagInt, uint64(int64(v)))
		} else {
			e.number(tagFloat, math.Float64bits(v))
		}
	case json.Number:
		if i, err := v.Int64(); err == nil {
			e.number(tagInt, uint64(i))
		} else if f, err := v.Float64(); err == nil {
			e.number(tagFloat, math.Float64bits(f))
		} else {
			return &badValue{v: v}
		}
	case string:
		e.buf = append(e.buf, tagString)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		e.buf = append(e.buf, v...)
	case []any:
		e.buf = append(e.buf, tagArray)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
		start := e.open()
		for i, x := range v {
			if bad := e.value(x); bad != nil {
				bad.at = append(bad.at, "["+strconv.Itoa(i)+"]")
				return bad
			}
		}
		e.sized(start)
	case map[string]any:
		return e.object(v)
	default:
		return &badValue{v: v}
	}
	return nil
}

func (e *encoder) object(m map[string]any) *badValue {
	e.buf = append(e.buf, tagObject)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(m)))
	start, mark := e.open(), len(e.entries)
	for k, v := range m {
		e.entries = append(e.entries, entry{k, v})
	}
	// An object nested in this one appends its entries past these, so
	// sorted reads the same whether or not that moves e.entries.
	sorted := e.entries[mark:]
	// Most objects have a few keys, which an insertion sort puts in order
	// with no call per comparison; it only checks the order of more.
	if len(sorted) > 16 {
		slices.SortFunc(sorted, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].key < sorted[j-1].key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, en := range sorted {
		e.buf = binary.AppendUvarint(e.buf, e.key(en.key))
		if bad := e.value(en.v); bad != nil {
			bad.at = append(bad.at, en.key)
			return bad
		}
	}
	e.entries = e.entries[:mark]
	e.sized(start)
	return nil
}

// key returns k's index in the key table.
func (e *encoder) key(k string) uint64 {
	n := e.nth
	e.nth++
	if n < len(e.last) && e.last[n].name == k {
		return e.last[n].i
	}
	ki := interned{k, e.keys.intern(k)}
	if n < len(e.last) {
		e.last[n] = ki
	} else {
		e.last = append(e.last, ki)
	}
	return ki.i
}

func (e *encoder) number(tag byte, bits uint64) {
	e.buf = append(e.buf, tag)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
}

// open reserves the byte a byte length under 128 takes, and returns
// where what it measures starts.
func (e *encoder) open() int {
	e.buf = append(e.buf, 0)
	return len(e.buf)
}

// sized writes the byte length of what was written since start into the
// byte open reserved, and into bytes inserted after it if it needs more.
func (e *encoder) sized(start int) {
	var n [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(n[:], uint64(len(e.buf)-start))
	e.buf[start-1] = n[0]
	if w > 1 {
		e.buf = slices.Insert(e.buf, start, n[1:w]...)
	}
}

// badValue is a value in a document that encoding/json would not have
// produced, and where it is.
type badValue struct {
	v  any
	at []string // keys and [indexes] from the value up to the document
}

func (b *badValue) Error() string {
	var path strings.Builder
	for i := len(b.at) - 1; i >= 0; i-- {
		if path.Len() > 0 && !strings.HasPrefix(b.at[i], "[") {
			path.WriteByte('.')
		}
		path.WriteString(b.at[i])
	}
	if n, ok := b.v.(json.Number); ok {
		return fmt.Sprintf("document value at %q is json.Number %q, which is not a number", path.String(), string(n))
	}
	return fmt.Sprintf("document value at %q is a %T, which is not a JSON value", path.String(), b.v)
}

// decode returns the document doc encodes, as encoding/json decodes it:
// objects are maps, arrays []any and numbers float64, except a number a
// float64 would not encode back to, which is a json.Number that does.
// Encoding what decode returns gives doc back.
func (t *keyTable) decode(doc string) map[string]any {
	v, _ := t.value(doc, 0)
	return v.(map[string]any)
}

// value decodes the value at p of doc and returns it and the position
// past it.
func (t *keyTable) value(doc string, p int) (any, int) {
	tag := doc[p]
	p++
	switch tag {
	case tagNull:
		return nil, p
	case tagFalse, tagTrue:
		return tag == tagTrue, p
	case tagInt:
		i := int64(u64(doc, p))
		if f := float64(i); int64(f) == i {
			return f, p + 8
		}
		return json.Number(strconv.FormatInt(i, 10)), p + 8
	case tagFloat:
		f := math.Float64frombits(u64(doc, p))
		if !isInt(f) {
			return f, p + 8
		}
		// An exponent keeps it from parsing as an int64.
		return json.Number(strconv.FormatFloat(f, 'e', -1, 64)), p + 8
	case tagString:
		n, p := uvarint(doc, p)
		return doc[p : p+int(n)], p + int(n)
	case tagArray:
		n, p := uvarint(doc, p)
		_, p = uvarint(doc, p)
		a := make([]any, n)
		for i := range a {
			a[i], p = t.value(doc, p)
		}
		return a, p
	case tagObject:
		n, p := uvarint(doc, p)
		_, p = uvarint(doc, p)
		m := make(map[string]any, n)
		for ; n > 0; n-- {
			k, q := uvarint(doc, p)
			m[t.names[k]], p = t.value(doc, q)
		}
		return m, p
	}
	panic(fmt.Sprintf("docstore: tag %d at %d of a stored document", tag, p-1))
}

// field returns the scalar at path in doc. A path that is missing, that
// meets anything but an object on the way, or that ends at null reads
// NULL; one that ends at an object or an array is an error. A string is
// a substring of doc: a field allocates nothing.
func field(doc string, path []uint64) (types.Value, error) {
	p := 0
	for _, key := range path {
		if doc[p] != tagObject {
			return types.Null, nil
		}
		n, q := uvarint(doc, p+1)
		_, q = uvarint(doc, q)
		p = -1
		for ; n > 0; n-- {
			k, v := uvarint(doc, q)
			if k == key {
				p = v
				break
			}
			q = skip(doc, v)
		}
		if p < 0 {
			return types.Null, nil
		}
	}
	switch doc[p] {
	case tagNull:
		return types.Null, nil
	case tagFalse, tagTrue:
		return types.NewBool(doc[p] == tagTrue), nil
	case tagInt:
		return types.NewInt(int64(u64(doc, p+1))), nil
	case tagFloat:
		return types.NewFloat(math.Float64frombits(u64(doc, p+1))), nil
	case tagString:
		n, q := uvarint(doc, p+1)
		return types.NewString(doc[q : q+int(n)]), nil
	case tagArray:
		return types.Null, errNotScalar("an array")
	default:
		return types.Null, errNotScalar("an object")
	}
}

// errNotScalar is the error of a field whose path ends at an object or an
// array: a column holds a scalar.
func errNotScalar(what string) error {
	return fmt.Errorf("%s is not a scalar (objects/arrays must be mapped by path)", what)
}

// skip returns the position past the value at p of doc.
func skip(doc string, p int) int {
	switch doc[p] {
	case tagNull, tagFalse, tagTrue:
		return p + 1
	case tagInt, tagFloat:
		return p + 9
	case tagString:
		n, q := uvarint(doc, p+1)
		return q + int(n)
	default:
		_, q := uvarint(doc, p+1)
		n, q := uvarint(doc, q)
		return q + int(n)
	}
}

// uvarint reads the uvarint at p of s and returns it and the position
// past it.
func uvarint(s string, p int) (uint64, int) {
	var x uint64
	for shift := 0; ; shift += 7 {
		b := s[p]
		p++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, p
		}
	}
}

// u64 reads the little-endian uint64 at p of s.
func u64(s string, p int) uint64 {
	s = s[p : p+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
