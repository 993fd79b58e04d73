package expr

import (
	"fmt"

	"gis/internal/types"
)

// AccSpec is what a GroupTable needs to know of one aggregate. Star is
// COUNT(*), which counts every row, NULLs included.
type AccSpec struct {
	Kind     AggKind
	Star     bool
	Distinct bool
}

// GroupTable is the state of a grouped aggregation: the groups seen so
// far, in first-seen order. Group g's output row is vals[g*w:][:w], its
// key followed by one slot per aggregate, and each slot holds its
// aggregate's running state from the start: COUNT's an INT from 0,
// SUM's, MIN's, MAX's and AVG's NULL until the first input, AVG's the
// sum until Rows divides it. The caller computes a row's group key into
// a scratch row it reuses, asks for the group and folds the row's inputs
// into it; the key is copied only when it starts a group. A table
// without keys has its one group from the start and no hash chain.
type GroupTable struct {
	keyWidth, w, n int
	aggs           []AccSpec
	vals           []types.Value
	// AVG's input count and DISTINCT's inputs so far, for aggregate j of
	// group g at g*len(aggs)+j; each is kept only when an aggregate
	// needs it.
	avg, distinct bool
	counts        []int64
	seen          []types.ValueSet
	chain         types.HashChain // links group g under its key's hash
}

// NewGroupTable returns a table for keys of keyWidth values, with no
// group unless keyWidth is 0. aggs is retained, not copied.
func NewGroupTable(keyWidth int, aggs []AccSpec) GroupTable {
	t := GroupTable{keyWidth: keyWidth, w: keyWidth + len(aggs), aggs: aggs}
	for _, a := range aggs {
		t.avg = t.avg || a.Kind == AggAvg
		t.distinct = t.distinct || a.Distinct
	}
	if keyWidth == 0 {
		t.start(nil)
	}
	return t
}

// start appends key's group, each aggregate in its starting state, and
// returns its number.
func (t *GroupTable) start(key types.Row) int {
	g := t.n
	t.n++
	t.vals = extend(t.vals, t.w)
	copy(t.vals[g*t.w:], key)
	for j, a := range t.aggs {
		if a.Kind == AggCount {
			t.vals[g*t.w+t.keyWidth+j] = types.NewInt(0)
		}
	}
	if t.avg {
		t.counts = extend(t.counts, len(t.aggs))
	}
	if t.distinct {
		t.seen = extend(t.seen, len(t.aggs))
	}
	return g
}

// extend returns s longer by n zero elements, in a new array of twice
// the capacity when they do not fit. It stands for
// append(s, make([]T, n)...), which allocates the zeros on every call
// when the race detector is on.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(len(s)+n, 2*cap(s))), s...)
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

func (t *GroupTable) key(g int) types.Row { return t.vals[g*t.w:][:t.keyWidth] }

// Group returns the number of key's group, starting it if key (NULL
// equal to NULL) is new: groups are numbered 0, 1, 2, … as they start.
// key is only read.
func (t *GroupTable) Group(key types.Row) int {
	if t.keyWidth == 0 {
		return 0
	}
	h := key.Hash()
	for g := t.chain.First(h); g >= 0; g = t.chain.Next(g) {
		if t.key(g).Equal(key) {
			return g
		}
	}
	t.chain.Link(t.n, h, func(g int) uint64 { return t.key(g).Hash() })
	return t.start(key)
}

// Fold folds v into aggregate j of group g. COUNT(*) counts v whatever
// it is; every other aggregate skips a NULL and, under DISTINCT, a value
// equal to one it folded before. SUM stays an INT until a FLOAT arrives.
func (t *GroupTable) Fold(g, j int, v types.Value) error {
	a := t.aggs[j]
	if !a.Star && v.IsNull() || a.Distinct && !t.seen[g*len(t.aggs)+j].Add(v) {
		return nil
	}
	s := &t.vals[g*t.w+t.keyWidth+j]
	switch a.Kind {
	case AggCount:
		*s = types.NewInt(s.Int() + 1)
	case AggSum, AggAvg:
		if !v.Kind().Numeric() {
			return fmt.Errorf("%s over non-numeric value %s", a.Kind, v.Kind())
		}
		sum := *s
		if sum.IsNull() {
			sum = types.NewInt(0)
		}
		if a.Kind == AggSum && sum.Kind() == types.KindInt && v.Kind() == types.KindInt {
			*s = types.NewInt(sum.Int() + v.Int())
		} else {
			*s = types.NewFloat(sum.AsFloat() + v.AsFloat())
		}
		if a.Kind == AggAvg {
			t.counts[g*len(t.aggs)+j]++
		}
	case AggMin, AggMax:
		if s.IsNull() {
			*s = v
		} else if c := v.Compare(*s); c < 0 && a.Kind == AggMin || c > 0 && a.Kind == AggMax {
			*s = v
		}
	}
	return nil
}

// Len is the number of groups started.
func (t *GroupTable) Len() int { return t.n }

// Rows ends the table: it returns one row per group in first-seen
// order, the key followed by the aggregate results, each row a slice of
// the table's values. A table without keys that saw no input returns
// one row of empty-input results.
func (t *GroupTable) Rows() []types.Row {
	rows := make([]types.Row, t.n)
	for g := range rows {
		rows[g] = t.vals[g*t.w:][:t.w:t.w]
		if !t.avg {
			continue
		}
		for j, n := range t.counts[g*len(t.aggs):][:len(t.aggs)] {
			if s := &rows[g][t.keyWidth+j]; n > 0 {
				*s = types.NewFloat(s.Float() / float64(n))
			}
		}
	}
	return rows
}
