package types

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// edgeCorpus holds the values whose behaviour must not depend on how
// Value lays out its payload: the extremes of every kind, the numeric
// cross-kind pairs, and TIME instants on both sides of every boundary a
// single int64 of nanoseconds has (1677-09-21 and 2262-04-11).
var edgeCorpus = []struct {
	name string
	v    Value
}{
	{"null", Null},
	{"false", NewBool(false)},
	{"true", NewBool(true)},
	{"int0", NewInt(0)},
	{"int1", NewInt(1)},
	{"int-1", NewInt(-1)},
	{"minint", NewInt(math.MinInt64)},
	{"maxint", NewInt(math.MaxInt64)},
	{"+0.0", NewFloat(0)},
	{"-0.0", NewFloat(math.Copysign(0, -1))},
	{"1.0", NewFloat(1)},
	{"1.5", NewFloat(1.5)},
	{"nan", NewFloat(math.NaN())},
	{"+inf", NewFloat(math.Inf(1))},
	{"-inf", NewFloat(math.Inf(-1))},
	{"str-empty", NewString("")},
	{"str-1", NewString("1")},
	{"str-true", NewString("TRUE")},
	{"str-quote", NewString("o'k")},
	{"str-date", NewString("9999-12-31")},
	{"bytes-empty", NewBytes(nil)},
	{"bytes-1", NewBytes([]byte("1"))},
	{"t-year1", NewTime(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC))},
	{"t-1677", NewTime(time.Date(1677, 1, 1, 0, 0, 0, 5, time.UTC))},
	{"t-epoch-1ns", NewTime(time.Unix(0, -1))},
	{"t-epoch", NewTime(time.Unix(0, 0))},
	{"t-zoned", NewTime(time.Date(2020, 2, 29, 1, 30, 0, 0, time.FixedZone("east", 3*3600)))},
	{"t-2263", NewTime(time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC))},
	{"t-9999", NewTime(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC))},
}

var allKinds = []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindBytes, KindTime}

// observed is everything a caller can see of one corpus value, rendered
// as text so the expectation is a literal.
type observed struct {
	str, sql string
	size     int
	hash0    uint64 // Hash(0)
	hashSeed uint64 // Hash(0x9e3779b97f4a7c15)
	coerce   string // one "kind:rendering" or "err" entry per target kind
	equal    string // one '0'/'1' per corpus value
	compare  string // one '<'/'='/'>' per corpus value
}

func observe(v Value) observed {
	o := observed{
		str: v.String(), sql: v.SQL(), size: v.EstimatedSize(),
		hash0: v.Hash(0), hashSeed: v.Hash(0x9e3779b97f4a7c15),
	}
	var co []string
	for _, k := range allKinds {
		c, err := v.Coerce(k)
		if err != nil {
			co = append(co, "err")
			continue
		}
		co = append(co, c.Kind().String()+":"+c.String())
	}
	o.coerce = strings.Join(co, "|")
	var eq, cmp strings.Builder
	for _, other := range edgeCorpus {
		if v.Equal(other.v) {
			eq.WriteByte('1')
		} else {
			eq.WriteByte('0')
		}
		cmp.WriteByte("<=>"[v.Compare(other.v)+1])
	}
	o.equal, o.compare = eq.String(), cmp.String()
	return o
}

// TestValueSemanticsPinned compares every observable of the edge corpus
// with literals captured from the 64-byte layout (commit cdf4f05). The SQL
// of a finite FLOAT with an integral value has since gained ".0" (+0.0,
// -0.0 and 1.0 below): without it the literal read back as an INT, and
// two expressions that differ only in such a literal printed, and were
// deduplicated, as one.
func TestValueSemanticsPinned(t *testing.T) {
	if len(pinned) != len(edgeCorpus) {
		t.Fatalf("pinned has %d entries, corpus %d", len(pinned), len(edgeCorpus))
	}
	for i, c := range edgeCorpus {
		if got := observe(c.v); got != pinned[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, pinned[i])
		}
	}
}

// TestTimeRoundTrip checks that the (seconds, nanos) pair gives back
// the instant it was built from, in UTC, over the whole range.
func TestTimeRoundTrip(t *testing.T) {
	for _, c := range edgeCorpus {
		if c.v.Kind() != KindTime {
			continue
		}
		tm := c.v.Time()
		if tm.Location() != time.UTC {
			t.Errorf("%s: location %v, want UTC", c.name, tm.Location())
		}
		if back := NewTime(tm); !back.Equal(c.v) || back.Hash(0) != c.v.Hash(0) {
			t.Errorf("%s: NewTime(v.Time()) = %v, want %v", c.name, back, c.v)
		}
	}
}

func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 32", sz)
	}
}

// pinned is index-aligned with edgeCorpus.
var pinned = []observed{
	{"NULL", "NULL", 1, 0xaf64724c8602eb6e, 0x8ddb997fcd923cc1,
		"NULL:NULL|NULL:NULL|NULL:NULL|NULL:NULL|NULL:NULL|NULL:NULL|NULL:NULL",
		"10000000000000000000000000000", "=<<<<<<<<<<<<<<<<<<<<<<<<<<<<"},
	{"false", "false", 2, 0x82f2207b4e88cc4, 0x2a90c934ff785b6b,
		"err|BOOL:false|INT:0|err|STRING:false|err|err",
		"01000000000000000000000000000", ">=<<<<<<<<<<<<<<<<<<<<<<<<<<<"},
	{"true", "true", 2, 0x82f2307b4e88e77, 0x2a90c834ff7859d8,
		"err|BOOL:true|INT:1|err|STRING:true|err|err",
		"00100000000000000000000000000", ">>=<<<<<<<<<<<<<<<<<<<<<<<<<<"},
	{"0", "0", 9, 0xcd92cf54dc615e5, 0x2e66c7c60656c24a,
		"err|BOOL:false|INT:0|FLOAT:0|STRING:0|err|TIME:1970-01-01T00:00:00Z",
		"00010000110000000000000000000", ">>>=<>><==<<><><<<<<<<<<<<<<<"},
	{"1", "1", 9, 0xde8ddf54eacc2d8, 0x2f5736c6053c1577,
		"err|BOOL:true|INT:1|FLOAT:1|STRING:1|err|TIME:1970-01-01T00:00:01Z",
		"00001000001000000000000000000", ">>>>=>><>>=<><><<<<<<<<<<<<<<"},
	{"-1", "-1", 9, 0xde85df54eabe958, 0x2f57b6c6053b3ef7,
		"err|BOOL:true|INT:-1|FLOAT:-1|STRING:-1|err|TIME:1969-12-31T23:59:59Z",
		"00000100000000000000000000000", ">>><<=><<<<<><><<<<<<<<<<<<<<"},
	{"-9223372036854775808", "-9223372036854775808", 9, 0xe2029f54edc866c, 0x2c9fc2c6054c51c3,
		"err|BOOL:true|INT:-9223372036854775808|FLOAT:-9.223372036854776e+18|STRING:-9223372036854775808|err|TIME:292277026596-12-04T15:30:08Z",
		"00000010000000000000000000000", ">>><<<=<<<<<><><<<<<<<<<<<<<<"},
	{"9223372036854775807", "9223372036854775807", 9, 0xe1fa9f54edbacec, 0x2ca042c6054b7b43,
		"err|BOOL:true|INT:9223372036854775807|FLOAT:9.223372036854776e+18|STRING:9223372036854775807|err|TIME:292277026596-12-04T15:30:07Z",
		"00000001000000000000000000000", ">>>>>>>=>>>>><><<<<<<<<<<<<<<"},
	{"0", "0.0", 9, 0xcd92cf54dc615e5, 0x2e66c7c60656c24a,
		"err|err|INT:0|FLOAT:0|STRING:0|err|err",
		"00010000110000000000000000000", ">>>=<>><==<<><><<<<<<<<<<<<<<"},
	{"-0", "-0.0", 9, 0xcd9acf54dc6ef65, 0x2e6647c6065638ca,
		"err|err|INT:0|FLOAT:-0|STRING:-0|err|err",
		"00010000110000000000000000000", ">>>=<>><==<<><><<<<<<<<<<<<<<"},
	{"1", "1.0", 9, 0xde8ddf54eacc2d8, 0x2f5736c6053c1577,
		"err|err|INT:1|FLOAT:1|STRING:1|err|err",
		"00001000001000000000000000000", ">>>>=>><>>=<><><<<<<<<<<<<<<<"},
	{"1.5", "1.5", 9, 0xdcdddf54e95fb20, 0x2f7236c605052c8f,
		"err|err|err|FLOAT:1.5|STRING:1.5|err|err",
		"00000000000100000000000000000", ">>>>>>><>>>=><><<<<<<<<<<<<<<"},
	{"NaN", "NaN", 9, 0xf04f8cec44e9cb91, 0xd2f067df0f791c3e,
		"err|err|err|FLOAT:NaN|STRING:NaN|err|err",
		"00000000000000000000000000000", ">>><<<<<<<<<=<<<<<<<<<<<<<<<<"},
	{"+Inf", "+Inf", 9, 0xde89df54eac5618, 0x2f5776c6053c81b7,
		"err|err|err|FLOAT:+Inf|STRING:+Inf|err|err",
		"00000000000001000000000000000", ">>>>>>>>>>>>>=><<<<<<<<<<<<<<"},
	{"-Inf", "-Inf", 9, 0xde81df54eab7c98, 0x2f57f6c6053bab37,
		"err|err|err|FLOAT:-Inf|STRING:-Inf|err|err",
		"00000000000000100000000000000", ">>><<<<<<<<<><=<<<<<<<<<<<<<<"},
	{"", "''", 3, 0xaf63b94c8601b113, 0x8ddc527fcd9166bc,
		"err|err|err|err|STRING:|BYTES:x''|err",
		"00000000000000010000000000000", ">>>>>>>>>>>>>>>=<<<<<<<<<<<<<"},
	{"1", "'1'", 4, 0x824ff07b4dffcc6, 0x2a9b1434ff4f2b69,
		"err|BOOL:true|INT:1|FLOAT:1|STRING:1|BYTES:x'31'|err",
		"00000000000000001000000000000", ">>>>>>>>>>>>>>>>=<<<<<<<<<<<<"},
	{"TRUE", "'TRUE'", 7, 0xf7c781e245a4bd1f, 0xd5786ad10e346ab0,
		"err|BOOL:true|err|err|STRING:TRUE|BYTES:x'54525545'|err",
		"00000000000000000100000000000", ">>>>>>>>>>>>>>>>>=<><<<<<<<<<"},
	{"o'k", "'o''k'", 6, 0x5a4dec6047bf0b46, 0x78f207530c2fdce9,
		"err|err|err|err|STRING:o'k|BYTES:x'6f276b'|err",
		"00000000000000000010000000000", ">>>>>>>>>>>>>>>>>>=><<<<<<<<<"},
	{"9999-12-31", "'9999-12-31'", 13, 0x7cea172f1e8c85e8, 0x5e55fc1c551c5247,
		"err|err|err|err|STRING:9999-12-31|BYTES:x'393939392d31322d3331'|TIME:9999-12-31T00:00:00Z",
		"00000000000000000001000000000", ">>>>>>>>>>>>>>>>><<=<<<<<<<<<"},
	{"x''", "x''", 3, 0xaf63b84c8601af60, 0x8ddc537fcd9178cf,
		"err|err|err|err|STRING:x''|BYTES:x''|err",
		"00000000000000000000100000000", ">>>>>>>>>>>>>>>>>>>>=<<<<<<<<"},
	{"x'31'", "x'31'", 4, 0x8217b07b4dce6a3, 0x2a9e9034ff4c310c,
		"err|err|err|err|STRING:x'31'|BYTES:x'31'|err",
		"00000000000000000000010000000", ">>>>>>>>>>>>>>>>>>>>>=<<<<<<<"},
	{"0001-01-01T00:00:00Z", "'0001-01-01T00:00:00Z'", 13, 0xfdec2c864fc1cf6b, 0xdf53c7b5045118c4,
		"err|err|INT:-62135596800|err|STRING:0001-01-01T00:00:00Z|err|TIME:0001-01-01T00:00:00Z",
		"00000000000000000000001000000", ">>>>>>>>>>>>>>>>>>>>>>=<<<<<<"},
	{"1677-01-01T00:00:00.000000005Z", "'1677-01-01T00:00:00.000000005Z'", 13, 0x92a0606742bbf4e8, 0xb01f8b54092b2347,
		"err|err|INT:-9246096000|err|STRING:1677-01-01T00:00:00.000000005Z|err|TIME:1677-01-01T00:00:00.000000005Z",
		"00000000000000000000000100000", ">>>>>>>>>>>>>>>>>>>>>>>=<<<<<"},
	{"1969-12-31T23:59:59.999999999Z", "'1969-12-31T23:59:59.999999999Z'", 13, 0x6785cef86614d211, 0x453a25cb2d8405be,
		"err|err|INT:-1|err|STRING:1969-12-31T23:59:59.999999999Z|err|TIME:1969-12-31T23:59:59.999999999Z",
		"00000000000000000000000010000", ">>>>>>>>>>>>>>>>>>>>>>>>=<<<<"},
	{"1970-01-01T00:00:00Z", "'1970-01-01T00:00:00Z'", 13, 0xbf2fd77efb5a3d99, 0x9d903c4db0caea36,
		"err|err|INT:0|err|STRING:1970-01-01T00:00:00Z|err|TIME:1970-01-01T00:00:00Z",
		"00000000000000000000000001000", ">>>>>>>>>>>>>>>>>>>>>>>>>=<<<"},
	{"2020-02-28T22:30:00Z", "'2020-02-28T22:30:00Z'", 13, 0x2f023e34dff2155e, 0xdbdd5079462c2f1,
		"err|err|INT:1582929000|err|STRING:2020-02-28T22:30:00Z|err|TIME:2020-02-28T22:30:00Z",
		"00000000000000000000000000100", ">>>>>>>>>>>>>>>>>>>>>>>>>>=<<"},
	{"2263-01-01T00:00:00Z", "'2263-01-01T00:00:00Z'", 13, 0x8db6d6f4e9595bc8, 0xaf093dc7a2c98c67,
		"err|err|INT:9246182400|err|STRING:2263-01-01T00:00:00Z|err|TIME:2263-01-01T00:00:00Z",
		"00000000000000000000000000010", ">>>>>>>>>>>>>>>>>>>>>>>>>>>=<"},
	{"9999-12-31T23:59:59.999999999Z", "'9999-12-31T23:59:59.999999999Z'", 13, 0xce43fd799cfd70ff, 0xecfc164ad76da750,
		"err|err|INT:253402300799|err|STRING:9999-12-31T23:59:59.999999999Z|err|TIME:9999-12-31T23:59:59.999999999Z",
		"00000000000000000000000000001", ">>>>>>>>>>>>>>>>>>>>>>>>>>>>="},
}
