package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gis/internal/types"
)

// fullCheckEvery is how often a statement's whole answer (not just its
// row count) is compared with the naive evaluation.
const fullCheckEvery = 64

// checkCount is the check every statement gets: the number of rows
// returned (or affected) against the generator's expectation.
func checkCount(s stmt, got int64) error {
	if got != s.want {
		return fmt.Errorf("got %d row(s), want %d", got, s.want)
	}
	return nil
}

// checkFull compares a whole answer with the naive evaluation: row by
// row when the template fixes the order, as a multiset otherwise.
func checkFull(s stmt, ordered bool, got []types.Row) error {
	want := s.full()
	if len(got) != len(want) {
		return fmt.Errorf("got %d row(s), want %d", len(got), len(want))
	}
	g, w := make([]string, len(got)), make([]string, len(want))
	for i := range got {
		g[i], w[i] = rowKey(got[i]), wantKey(want[i])
	}
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %d: got (%s), want (%s)", i, g[i], w[i])
		}
	}
	return nil
}

// rowKey and wantKey render a row in one canonical text form, so rows
// compare and sort as strings. Every float the workloads produce is a
// multiple of 0.25 well below 2^53 and therefore exact; it is printed
// with all its digits, not rounded.
func rowKey(r types.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		switch v.Kind() {
		case types.KindNull:
			b.WriteString("null")
		case types.KindInt:
			b.WriteString(strconv.FormatInt(v.Int(), 10))
		case types.KindFloat:
			b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
		case types.KindString:
			b.WriteString(strconv.Quote(v.Str()))
		default:
			b.WriteString(v.Kind().String() + ":" + v.String())
		}
	}
	return b.String()
}

func wantKey(r []any) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case nil:
			b.WriteString("null")
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		case string:
			b.WriteString(strconv.Quote(x))
		default:
			panic(fmt.Sprintf("bench: oracle cell of unsupported type %T", v))
		}
	}
	return b.String()
}
