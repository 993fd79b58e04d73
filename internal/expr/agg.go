package expr

import (
	"fmt"
	"strconv"

	"gis/internal/types"
)

// Accumulator is the running state of one aggregate function over one
// group. Accumulators are created per group by NewAccumulator and fed
// with Add; Result finalizes the value.
type Accumulator interface {
	// Add folds one input value into the accumulator. For COUNT(*) the
	// value is ignored (but still counted).
	Add(v types.Value) error
	// Result returns the aggregate value for the group.
	Result() types.Value
}

// NewAccumulator creates an accumulator for the given aggregate call.
// star indicates COUNT(*) (count every row including NULLs).
func NewAccumulator(kind AggKind, star, distinct bool) Accumulator {
	var inner Accumulator
	switch kind {
	case AggCount:
		inner = &countAcc{star: star}
	case AggSum:
		inner = &sumAcc{}
	case AggAvg:
		inner = &avgAcc{}
	case AggMin:
		inner = &minmaxAcc{min: true}
	case AggMax:
		inner = &minmaxAcc{min: false}
	default:
		panic("unknown aggregate kind " + strconv.Itoa(int(kind)))
	}
	if distinct {
		return &distinctAcc{seen: make(map[uint64][]types.Value), inner: inner}
	}
	return inner
}

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) Add(v types.Value) error {
	if a.star || !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) Result() types.Value { return types.NewInt(a.n) }

type sumAcc struct {
	sawAny   bool
	isFloat  bool
	intSum   int64
	floatSum float64
}

func (a *sumAcc) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if !v.Kind().Numeric() {
		return fmt.Errorf("SUM over non-numeric value %s", v.Kind())
	}
	a.sawAny = true
	if v.Kind() == types.KindFloat && !a.isFloat {
		a.isFloat = true
		a.floatSum = float64(a.intSum)
	}
	if a.isFloat {
		a.floatSum += v.AsFloat()
	} else {
		a.intSum += v.Int()
	}
	return nil
}

func (a *sumAcc) Result() types.Value {
	if !a.sawAny {
		return types.Null
	}
	if a.isFloat {
		return types.NewFloat(a.floatSum)
	}
	return types.NewInt(a.intSum)
}

type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if !v.Kind().Numeric() {
		return fmt.Errorf("AVG over non-numeric value %s", v.Kind())
	}
	a.n++
	a.sum += v.AsFloat()
	return nil
}

func (a *avgAcc) Result() types.Value {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.sum / float64(a.n))
}

type minmaxAcc struct {
	min bool
	val types.Value // Null until the first non-null input
}

func (a *minmaxAcc) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if a.val.IsNull() {
		a.val = v
		return nil
	}
	c := v.Compare(a.val)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.val = v
	}
	return nil
}

func (a *minmaxAcc) Result() types.Value { return a.val }

// distinctAcc deduplicates inputs before forwarding to the inner
// accumulator. Hash collisions are resolved by exact comparison.
type distinctAcc struct {
	seen  map[uint64][]types.Value
	inner Accumulator
}

func (a *distinctAcc) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	h := v.Hash(0)
	for _, prev := range a.seen[h] {
		if prev.Equal(v) {
			return nil
		}
	}
	a.seen[h] = append(a.seen[h], v)
	return a.inner.Add(v)
}

func (a *distinctAcc) Result() types.Value { return a.inner.Result() }

// AccSpec is what a GroupTable needs to know of one aggregate: the
// arguments of NewAccumulator.
type AccSpec struct {
	Kind     AggKind
	Star     bool
	Distinct bool
}

// GroupTable is the state of a grouped aggregation: the groups seen so
// far, in first-seen order, each with one Accumulator per aggregate.
// The caller computes a row's group key into a scratch row it reuses,
// asks for the group and feeds the accumulators; the key is copied only
// when it starts a group.
type GroupTable struct {
	keyWidth int
	aggs     []AccSpec
	// heads maps a key hash to the last group started under it;
	// group.sameHash chains the ones before.
	heads       map[uint64]*group
	first, last *group // the first-seen order, chained by group.after
	n           int
}

// group owns its output row from the start: the key is row[:keyWidth],
// and Rows writes the aggregate results behind it.
type group struct {
	row             types.Row
	accs            []Accumulator
	sameHash, after *group
}

// NewGroupTable returns an empty table for keys of keyWidth values.
// aggs is retained, not copied.
func NewGroupTable(keyWidth int, aggs []AccSpec) *GroupTable {
	return &GroupTable{keyWidth: keyWidth, aggs: aggs, heads: make(map[uint64]*group)}
}

// Group returns the accumulators of key's group, one per aggregate in
// order, starting the group if key (NULL equal to NULL) is new. key is
// only read.
func (t *GroupTable) Group(key types.Row) []Accumulator {
	h := key.Hash()
	head := t.heads[h]
	for g := head; g != nil; g = g.sameHash {
		if g.row[:t.keyWidth].Equal(key) {
			return g.accs
		}
	}
	g := t.newGroup(key)
	g.sameHash, t.heads[h] = head, g
	if t.last == nil {
		t.first = g
	} else {
		t.last.after = g
	}
	t.last = g
	t.n++
	return g.accs
}

func (t *GroupTable) newGroup(key types.Row) *group {
	g := &group{row: make(types.Row, t.keyWidth+len(t.aggs)), accs: make([]Accumulator, len(t.aggs))}
	copy(g.row, key)
	for i, a := range t.aggs {
		g.accs[i] = NewAccumulator(a.Kind, a.Star, a.Distinct)
	}
	return g
}

// Len is the number of groups started.
func (t *GroupTable) Len() int { return t.n }

// Rows returns one row per group in first-seen order: the key followed
// by the aggregate results. A global aggregation (keyWidth 0) that saw
// no input yields the one row of empty-input results. The rows are the
// table's own; adding to a group afterwards and calling Rows again
// overwrites their results.
func (t *GroupTable) Rows() []types.Row {
	first, n := t.first, t.n
	if n == 0 && t.keyWidth == 0 {
		first, n = t.newGroup(nil), 1
	}
	out := make([]types.Row, 0, n)
	for g := first; g != nil; g = g.after {
		for j, acc := range g.accs {
			g.row[t.keyWidth+j] = acc.Result()
		}
		out = append(out, g.row)
	}
	return out
}
