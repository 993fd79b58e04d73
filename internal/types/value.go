// Package types defines the value model shared by every layer of the
// federation: SQL literals, wire-encoded rows, store payloads, and
// execution-engine tuples all use the same Value representation.
//
// The model is deliberately small — NULL, BOOL, INT (64-bit), FLOAT
// (64-bit), STRING, BYTES, and TIME — because a global information system
// must present a least-common-denominator type system that every
// heterogeneous component system can be mapped onto.
package types

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the data types of the global type system.
type Kind uint8

// The global type system's kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindTime
)

// String returns the SQL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBytes:
		return "BYTES"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL-style type name ("INT", "varchar", ...) into a
// Kind. It accepts the common aliases used by component-system schemas.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BOOL", "BOOLEAN":
		return KindBool, true
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "INT4", "INT8":
		return KindInt, true
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC", "FLOAT8":
		return KindFloat, true
	case "STRING", "TEXT", "VARCHAR", "CHAR", "CLOB":
		return KindString, true
	case "BYTES", "BLOB", "BINARY", "VARBINARY":
		return KindBytes, true
	case "TIME", "TIMESTAMP", "DATE", "DATETIME":
		return KindTime, true
	case "NULL":
		return KindNull, true
	default:
		return KindNull, false
	}
}

// Numeric reports whether the kind is INT or FLOAT.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single datum in the global type system. The zero Value is
// NULL. Values are immutable by convention; Bytes payloads must not be
// mutated after construction.
//
// The layout is a tagged union in 32 bytes (DESIGN.md "Value layout"):
// only one payload is ever live, so the scalar kinds share one word.
type Value struct {
	kind Kind
	nsec uint32 // TIME: nanoseconds within the second, [0, 1e9)
	n    uint64 // BOOL 0/1, INT bits, FLOAT bits, TIME unix seconds
	s    string // STRING, and BYTES (keeps Value free of slices)
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a STRING value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewBytes returns a BYTES value. The slice is copied.
func NewBytes(b []byte) Value { return Value{kind: KindBytes, s: string(b)} }

// NewBytesOf returns a BYTES value whose payload is s's bytes. Nothing is
// copied: a decoder that already holds the payload as a string hands it
// over as it is.
func NewBytesOf(s string) Value { return Value{kind: KindBytes, s: s} }

// NewTime returns a TIME value. Only the instant is kept — as unix
// seconds plus nanoseconds, which covers every time.Time — so the
// value reads back in UTC.
func NewTime(t time.Time) Value { return newUnixTime(t.Unix(), uint32(t.Nanosecond())) }

func newUnixTime(sec int64, nsec uint32) Value {
	return Value{kind: KindTime, nsec: nsec, n: uint64(sec)}
}

// Kind returns the value's kind. NULL values have KindNull.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the BOOL payload; it must only be called when Kind()==KindBool.
func (v Value) Bool() bool { return v.n != 0 }

// Int returns the INT payload; it must only be called when Kind()==KindInt.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns the FLOAT payload; it must only be called when Kind()==KindFloat.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// Str returns the STRING payload; it must only be called when Kind()==KindString.
func (v Value) Str() string { return v.s }

// Bytes returns a copy of the BYTES payload.
func (v Value) Bytes() []byte { return []byte(v.s) }

// Time returns the TIME payload, in UTC; it must only be called when
// Kind()==KindTime.
func (v Value) Time() time.Time { return time.Unix(int64(v.n), int64(v.nsec)).UTC() }

// AsFloat converts a numeric value to float64. It must only be called on
// INT or FLOAT values.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.Int())
	}
	return v.Float()
}

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.s)
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("<bad kind %d>", v.kind)
	}
}

// SQL renders the value as a SQL literal (quoting strings) that reads
// back as the same kind: a finite FLOAT whose shortest form has neither a
// point nor an exponent gets ".0", or 2.0 would read back as the INT 2.
func (v Value) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "'" + v.String() + "'"
	case KindFloat:
		var buf [32]byte
		f := v.Float()
		b := strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
		if !math.IsInf(f, 0) && !math.IsNaN(f) && !bytes.ContainsAny(b, ".e") {
			b = append(b, ".0"...)
		}
		return string(b)
	default:
		return v.String()
	}
}

// Equal reports deep equality of two values. NULL equals NULL here (this
// is identity equality, used by grouping and duplicate elimination, not
// SQL tri-state equality, which the expression engine layers on top).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric cross-kind equality: 1 == 1.0.
		if v.kind.Numeric() && o.kind.Numeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool, KindInt:
		return v.n == o.n
	case KindFloat:
		return v.Float() == o.Float()
	case KindString, KindBytes:
		return v.s == o.s
	case KindTime:
		return v.n == o.n && v.nsec == o.nsec
	}
	return false
}

// Compare orders two values: -1 if v<o, 0 if equal, +1 if v>o. NULL sorts
// before every non-NULL value. Cross-kind numeric comparisons are
// performed in float64. Comparing incompatible kinds orders by kind tag so
// that sorting is still total.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.kind != o.kind {
		if v.kind.Numeric() && o.kind.Numeric() {
			return compareFloat(v.AsFloat(), o.AsFloat())
		}
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindBool, KindInt:
		// false < true falls out of 0 < 1.
		return compareInt(int64(v.n), int64(o.n))
	case KindFloat:
		return compareFloat(v.Float(), o.Float())
	case KindString, KindBytes:
		return strings.Compare(v.s, o.s)
	case KindTime:
		if c := compareInt(int64(v.n), int64(o.n)); c != 0 {
			return c
		}
		return compareInt(int64(v.nsec), int64(o.nsec))
	default:
		// KindNull was handled before the switch.
	}
	return 0
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaN handling: NaN sorts before everything except NaN.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

// FNV-1a parameters, inlined. hash/fnv's New64a allocates its running
// state on every call, and Hash sits on the hot path of every hash
// join, group-by, and distinct — one heap allocation per value hashed.
// The inline fold is bit-identical to writing the same bytes through
// hash/fnv (pinned by TestHashMatchesStdlibFNV).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// Hash folds the value into an FNV-1a hash and returns the running sum.
// Values that are Equal hash identically (numerics hash via float64).
func (v Value) Hash(seed uint64) uint64 {
	h := fnvOffset64
	switch v.kind {
	case KindNull:
		h = fnvByte(h, 0xff)
	case KindBool:
		h = fnvByte(h, 1)
		h = fnvByte(h, byte(v.n))
	case KindInt, KindFloat:
		h = fnvByte(h, 2) // shared tag: 1 and 1.0 must collide
		bits := math.Float64bits(v.AsFloat())
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(bits>>(8*i)))
		}
	case KindString, KindBytes:
		h = fnvByte(h, byte(v.kind))
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
	case KindTime:
		h = fnvByte(h, 6)
		// The instant as nanoseconds since the epoch. The product wraps
		// outside 1677–2262; equal pairs still hash equally.
		n := v.n*1e9 + uint64(v.nsec)
		for i := 0; i < 8; i++ {
			h = fnvByte(h, byte(n>>(8*i)))
		}
	}
	return seed*fnvPrime64 ^ h
}

// Coerce converts the value to the target kind, applying the global type
// system's coercion matrix. Coercing NULL yields NULL of any kind.
func (v Value) Coerce(to Kind) (Value, error) {
	if v.kind == to || v.kind == KindNull {
		return v, nil
	}
	switch to {
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.n != 0), nil
		case KindString:
			b, err := strconv.ParseBool(strings.ToLower(v.s))
			if err != nil {
				return Null, fmt.Errorf("cannot coerce %q to BOOL", v.s)
			}
			return NewBool(b), nil
		default:
			// Uncoercible: fall through to the error below.
		}
	case KindInt:
		switch v.kind {
		case KindFloat:
			f := v.Float()
			if f != math.Trunc(f) || math.IsNaN(f) || math.IsInf(f, 0) {
				return Null, fmt.Errorf("cannot coerce %v to INT without loss", f)
			}
			return NewInt(int64(f)), nil
		case KindBool:
			return NewInt(int64(v.n)), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot coerce %q to INT", v.s)
			}
			return NewInt(i), nil
		case KindTime:
			return NewInt(int64(v.n)), nil
		default:
			// Uncoercible: fall through to the error below.
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return NewFloat(float64(v.Int())), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot coerce %q to FLOAT", v.s)
			}
			return NewFloat(f), nil
		default:
			// Uncoercible: fall through to the error below.
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBytes:
		if v.kind == KindString {
			return NewBytesOf(v.s), nil
		}
	case KindTime:
		switch v.kind {
		case KindString:
			t, err := ParseTime(v.s)
			if err != nil {
				return Null, err
			}
			return NewTime(t), nil
		case KindInt:
			return newUnixTime(v.Int(), 0), nil
		default:
			// Uncoercible: fall through to the error below.
		}
	default:
		// KindNull as a target was handled before the switch.
	}
	return Null, fmt.Errorf("cannot coerce %s to %s", v.kind, to)
}

// ParseTime parses the timestamp formats accepted by the global SQL
// dialect: RFC 3339, "2006-01-02 15:04:05", and bare dates.
func ParseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		time.RFC3339Nano,
		time.RFC3339,
		"2006-01-02 15:04:05.999999999",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("cannot parse %q as TIME", s)
}

// EstimatedSize returns the approximate serialized footprint of the
// value in bytes (a kind tag plus the payload). It backs the byte
// accounting in EXPLAIN ANALYZE and trace spans; it is an estimate of
// wire cost, not of Go heap size.
func (v Value) EstimatedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 9
	case KindString, KindBytes:
		return 3 + len(v.s)
	case KindTime:
		return 13
	default:
		return 1
	}
}
