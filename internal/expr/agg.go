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
		return &distinctAcc{inner: inner}
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

// distinctAcc forwards each distinct non-NULL input to the inner
// accumulator once.
type distinctAcc struct {
	seen  types.ValueSet
	inner Accumulator
}

func (a *distinctAcc) Add(v types.Value) error {
	if v.IsNull() || !a.seen.Add(v) {
		return nil
	}
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
	// rows[i] is group i's output row from the start: the key is
	// rows[i][:keyWidth], and Rows writes the aggregate results behind
	// it. Its accumulators are accs[i*len(aggs):][:len(aggs)], and chain
	// links i under its key's hash.
	rows  []types.Row
	accs  []Accumulator
	chain types.HashChain
}

// NewGroupTable returns an empty table for keys of keyWidth values.
// aggs is retained, not copied.
func NewGroupTable(keyWidth int, aggs []AccSpec) *GroupTable {
	return &GroupTable{keyWidth: keyWidth, aggs: aggs}
}

// Group returns the accumulators of key's group, one per aggregate in
// order, starting the group if key (NULL equal to NULL) is new. key is
// only read.
func (t *GroupTable) Group(key types.Row) []Accumulator {
	h := key.Hash()
	for i := t.chain.First(h); i >= 0; i = t.chain.Next(i) {
		if t.rows[i][:t.keyWidth].Equal(key) {
			return t.accsOf(i)
		}
	}
	i := len(t.rows)
	t.chain.Link(i, h, func(i int) uint64 { return t.rows[i][:t.keyWidth].Hash() })
	t.rows = append(t.rows, make(types.Row, t.keyWidth+len(t.aggs)))
	copy(t.rows[i], key)
	t.accs = append(t.accs, make([]Accumulator, len(t.aggs))...)
	for j, a := range t.aggs {
		t.accs[i*len(t.aggs)+j] = NewAccumulator(a.Kind, a.Star, a.Distinct)
	}
	return t.accsOf(i)
}

func (t *GroupTable) accsOf(i int) []Accumulator {
	return t.accs[i*len(t.aggs):][:len(t.aggs)]
}

// Len is the number of groups started.
func (t *GroupTable) Len() int { return len(t.rows) }

// Rows returns one row per group in first-seen order: the key followed
// by the aggregate results. A global aggregation (keyWidth 0) that saw
// no input starts its one group here, of empty-input results. The slice
// and its rows are the table's own: adding to a group afterwards and
// calling Rows again overwrites their results, and a caller that
// reorders the slice is done with the table.
func (t *GroupTable) Rows() []types.Row {
	if len(t.rows) == 0 && t.keyWidth == 0 {
		t.Group(nil)
	}
	for i, row := range t.rows {
		for j, acc := range t.accsOf(i) {
			row[t.keyWidth+j] = acc.Result()
		}
	}
	return t.rows
}
