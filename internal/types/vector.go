package types

import (
	"fmt"
	"slices"
)

// Vector is one column of one kind held as its payloads alone (DESIGN.md
// "The relstore pass"): a word a value for BOOL, INT, FLOAT bits and TIME
// seconds, with TIME's nanoseconds beside them; the string for STRING
// and BYTES; NULL as a bit, in a bitmap made at the first NULL. At
// returns the value put, bit for bit. A non-NULL value of another kind
// is a programming error — every writer has coerced it — and Set panics.
type Vector struct {
	kind  Kind
	words []uint64 // every kind but STRING and BYTES
	nsec  []uint32 // TIME
	strs  []string // STRING, BYTES
	nulls []uint64 // bit i: value i is NULL; words past its end read 0
}

// NewVector returns an empty vector of kind k.
func NewVector(k Kind) Vector { return Vector{kind: k} }

func (v *Vector) strings() bool { return v.kind == KindString || v.kind == KindBytes }

// Len returns how many values the vector holds, words or strings.
func (v *Vector) Len() int { return len(v.words) + len(v.strs) }

// Cap returns how many values the vector has room for.
func (v *Vector) Cap() int { return cap(v.words) + cap(v.strs) }

// Grow makes room for n values past Len, allocating exactly that room
// when it must allocate.
func (v *Vector) Grow(n int) {
	switch size := v.Len() + n; {
	case size <= v.Cap():
	case v.strings():
		v.strs = copied(v.strs, size)
	default:
		v.words = copied(v.words, size)
		if v.kind == KindTime {
			v.nsec = copied(v.nsec, size)
		}
	}
}

// At returns value i.
func (v *Vector) At(i int) Value {
	if w := i >> 6; w < len(v.nulls) && v.nulls[w]&(1<<(i&63)) != 0 {
		return Null
	}
	switch v.kind {
	case KindString, KindBytes:
		return stringValue(v.kind, v.strs[i])
	case KindTime:
		return newUnixTime(int64(v.words[i]), v.nsec[i])
	default:
		return word(v.kind, v.words[i])
	}
}

// Holds reports whether value i is x, bit for bit.
func (v *Vector) Holds(i int, x Value) bool {
	return Identical(v.At(i), x)
}

// Append adds x at the end.
func (v *Vector) Append(x Value) {
	if v.strings() {
		v.strs = append(v.strs, "")
	} else if v.words = append(v.words, 0); v.kind == KindTime {
		v.nsec = append(v.nsec, 0)
	}
	v.Set(v.Len()-1, x)
}

// Set replaces value i with x. It writes the NULL bitmap only to change
// a bit, so appending a value that is not NULL leaves the bitmap alone.
func (v *Vector) Set(i int, x Value) {
	if x.kind != v.kind && x.kind != KindNull {
		panic(fmt.Sprintf("types: a %s value in a %s vector", x.kind, v.kind))
	}
	if v.strings() {
		v.strs[i] = x.str()
	} else if v.words[i] = x.n; v.kind == KindTime {
		v.nsec[i] = x.nsec
	}
	switch w, bit := i>>6, uint64(1)<<(i&63); {
	case x.kind == KindNull:
		for w >= len(v.nulls) {
			v.nulls = append(v.nulls, 0)
		}
		v.nulls[w] |= bit
	case w < len(v.nulls) && v.nulls[w]&bit != 0:
		v.nulls[w] &^= bit
	}
}

// Insert puts x at i, moving values i and on up one.
func (v *Vector) Insert(i int, x Value) {
	if v.strings() {
		v.strs = slices.Insert(v.strs, i, "")
	} else if v.words = slices.Insert(v.words, i, 0); v.kind == KindTime {
		v.nsec = slices.Insert(v.nsec, i, 0)
	}
	v.moveNulls(i, true)
	v.Set(i, x)
}

// Remove takes value i out, moving values past it down one. The room
// it leaves is zeroed, so it holds no string.
func (v *Vector) Remove(i int) {
	if v.strings() {
		v.strs = slices.Delete(v.strs, i, i+1)
	} else if v.words = slices.Delete(v.words, i, i+1); v.kind == KindTime {
		v.nsec = slices.Delete(v.nsec, i, i+1)
	}
	v.moveNulls(i, false)
}

// moveNulls moves the NULL bits of values i and on up one, leaving bit
// i clear, or drops bit i and moves those past it down one.
func (v *Vector) moveNulls(i int, up bool) {
	below, carry := uint64(1)<<(i&63)-1, uint64(0) // below: the bits of word i>>6 that stay
	for w := i >> 6; w < len(v.nulls); w, below = w+1, 0 {
		x := v.nulls[w]
		if up {
			v.nulls[w], carry = x&below|(x&^below)<<1|carry, x>>63
		} else if v.nulls[w] = x&below | (x>>1)&^below; w+1 < len(v.nulls) {
			v.nulls[w] |= v.nulls[w+1] << 63
		}
	}
	if carry != 0 {
		v.nulls = append(v.nulls, carry)
	}
}

// Clone returns a copy that shares no storage with v.
func (v *Vector) Clone() Vector {
	return Vector{v.kind, copied(v.words, len(v.words)), copied(v.nsec, len(v.nsec)),
		copied(v.strs, len(v.strs)), copied(v.nulls, len(v.nulls))}
}

// copied copies s into a new array of exactly size elements, size ≥ len(s).
func copied[E any](s []E, size int) []E { return append(make([]E, 0, size), s...) }
