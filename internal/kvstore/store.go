package kvstore

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Store is a collection of named buckets, each a B-tree of rows keyed by
// one column. It is exposed to the mediator as a weak source: only
// equality and range predicates on the key column can be pushed down;
// everything else is compensated at the mediator.
type Store struct {
	name string

	mu      sync.RWMutex
	buckets map[string]*bucket
}

type bucket struct {
	schema *types.Schema
	keyCol int
	tree   *BTree
}

// New returns an empty store.
func New(name string) *Store {
	return &Store{name: name, buckets: make(map[string]*bucket)}
}

// CreateBucket registers a bucket (exposed as a table). keyCol is the
// column rows are keyed by; keys must be unique.
func (s *Store) CreateBucket(name string, schema *types.Schema, keyCol int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.buckets[name]; dup {
		return fmt.Errorf("kvstore %s: bucket %q already exists", s.name, name)
	}
	if keyCol < 0 || keyCol >= schema.Len() {
		return fmt.Errorf("kvstore %s: key column %d out of range", s.name, keyCol)
	}
	s.buckets[name] = &bucket{schema: schema.Clone(), keyCol: keyCol, tree: NewBTree()}
	return nil
}

func (s *Store) bucketLocked(name string) (*bucket, error) {
	b, ok := s.buckets[name]
	if !ok {
		return nil, fmt.Errorf("kvstore %s: unknown bucket %q", s.name, name)
	}
	return b, nil
}

// Name implements source.Source.
func (s *Store) Name() string { return s.name }

// Tables implements source.Source.
func (s *Store) Tables(context.Context) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		out = append(out, n)
	}
	return out, nil
}

// TableInfo implements source.Source.
func (s *Store) TableInfo(_ context.Context, name string) (*source.TableInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.bucketLocked(name)
	if err != nil {
		return nil, err
	}
	return &source.TableInfo{
		Schema:     b.schema,
		KeyColumns: []int{b.keyCol},
		RowCount:   int64(b.tree.Len()),
	}, nil
}

// Capabilities implements source.Source: keyed access only.
func (s *Store) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterKey, Write: true}
}

// Execute implements source.Source. Per the capability contract the
// filter contains only comparisons between the key column and constants
// and IN lists of constants over it; they are converted to a single
// B-tree range scan or to point lookups.
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.bucketLocked(q.Table)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The store stops at a limit when it is handed one, though it does
	// not advertise that it can.
	caps := s.Capabilities()
	caps.Limit = true
	if err := q.Check(caps, &source.TableInfo{Schema: b.schema}); err != nil {
		return nil, fmt.Errorf("kvstore %s: %w", s.name, err)
	}
	lo, hi, inKeys, err := b.rangeFromFilter(q.Filter)
	if err != nil {
		return nil, fmt.Errorf("kvstore %s: %w", s.name, err)
	}
	var rows []types.Row
	limit := q.Limit
	if inKeys != nil {
		// IN-list keyed access (a pushed key IN (...), or shipped join
		// keys): one point lookup per distinct key, in key order as a
		// range scan would answer, filtered by any accompanying range
		// bounds. A list may name a key twice (1 and 1.0 are one key)
		// and a NULL entry matches nothing.
		slices.SortFunc(inKeys, types.Value.Compare)
		inKeys = slices.CompactFunc(inKeys, func(a, b types.Value) bool { return a.Compare(b) == 0 })
		for _, k := range inKeys {
			if limit >= 0 && int64(len(rows)) >= limit {
				break
			}
			if k.IsNull() || !withinBounds(k, lo, hi) {
				continue
			}
			if r, ok := b.tree.Get(k); ok {
				rows = append(rows, r)
			}
		}
		return source.SliceIter(rows), nil
	}
	if lo.Unbounded && hi.Unbounded {
		// A whole-bucket scan knows its length: growing rows by doubling
		// copies twice what the result holds.
		n := b.tree.Len()
		if limit >= 0 && limit < int64(n) {
			n = int(limit)
		}
		// One slice of row headers per query, not per row.
		rows = make([]types.Row, 0, n)
	}
	b.tree.Ascend(lo, hi, func(_ types.Value, v types.Row) bool {
		rows = append(rows, v)
		return limit < 0 || int64(len(rows)) < limit
	})
	return source.SliceIter(rows), nil
}

// withinBounds checks a key against optional range bounds.
func withinBounds(k types.Value, lo, hi Bound) bool {
	if !lo.Unbounded {
		c := k.Compare(lo.Value)
		if c < 0 || (c == 0 && !lo.Inclusive) {
			return false
		}
	}
	if !hi.Unbounded {
		c := k.Compare(hi.Value)
		if c > 0 || (c == 0 && !hi.Inclusive) {
			return false
		}
	}
	return true
}

// rangeFromFilter intersects key-column comparisons into one scan range
// and collects IN-list key sets (used by shipped join keys).
func (b *bucket) rangeFromFilter(filter expr.Expr) (Bound, Bound, []types.Value, error) {
	lo, hi := Unbounded, Unbounded
	var inKeys []types.Value
	for _, c := range expr.Conjuncts(filter) {
		if in, ok := c.(*expr.InList); ok && !in.Negate {
			col, colOK := in.E.(*expr.ColRef)
			if !colOK || col.Index != b.keyCol {
				return lo, hi, nil, fmt.Errorf("unsupported pushed predicate %s", c)
			}
			vals := make([]types.Value, 0, len(in.List))
			for _, le := range in.List {
				k, isConst := le.(*expr.Const)
				if !isConst {
					return lo, hi, nil, fmt.Errorf("unsupported pushed predicate %s", c)
				}
				vals = append(vals, k.Val)
			}
			if inKeys == nil {
				inKeys = vals
			} else {
				inKeys = intersectValues(inKeys, vals)
			}
			continue
		}
		col, op, v, ok := expr.ColumnComparison(c)
		if !ok || col.Index != b.keyCol {
			return lo, hi, nil, fmt.Errorf("unsupported pushed predicate %s", c)
		}
		switch op {
		case expr.OpEq:
			lo = tighterLo(lo, Incl(v))
			hi = tighterHi(hi, Incl(v))
		case expr.OpLt:
			hi = tighterHi(hi, Excl(v))
		case expr.OpLe:
			hi = tighterHi(hi, Incl(v))
		case expr.OpGt:
			lo = tighterLo(lo, Excl(v))
		case expr.OpGe:
			lo = tighterLo(lo, Incl(v))
		default:
			return lo, hi, nil, fmt.Errorf("unsupported key comparison %s", op)
		}
	}
	return lo, hi, inKeys, nil
}

func tighterLo(a, b Bound) Bound {
	if a.Unbounded {
		return b
	}
	if b.Unbounded {
		return a
	}
	c := a.Value.Compare(b.Value)
	if c > 0 || (c == 0 && !a.Inclusive) {
		return a
	}
	return b
}

func tighterHi(a, b Bound) Bound {
	if a.Unbounded {
		return b
	}
	if b.Unbounded {
		return a
	}
	c := a.Value.Compare(b.Value)
	if c < 0 || (c == 0 && !a.Inclusive) {
		return a
	}
	return b
}

// Insert implements source.Writer. Inserting an existing key fails.
func (s *Store) Insert(_ context.Context, table string, rows []types.Row) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.bucketLocked(table)
	if err != nil {
		return 0, err
	}
	if err := (&source.TableInfo{Schema: b.schema}).CheckWrite(table, nil, rows); err != nil {
		return 0, fmt.Errorf("kvstore %s: %w", s.name, err)
	}
	var n int64
	for _, r := range rows {
		k := r[b.keyCol]
		if k.IsNull() {
			return n, fmt.Errorf("kvstore %s: NULL key", s.name)
		}
		if _, exists := b.tree.Get(k); exists {
			return n, fmt.Errorf("kvstore %s: duplicate key %v", s.name, k)
		}
		b.tree.Put(k, r.Clone())
		n++
	}
	return n, nil
}

// Update implements source.Writer. The filter is evaluated at the
// mediator's behest over full rows (the wrapper applies it here since
// only it can see the data).
func (s *Store) Update(_ context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.bucketLocked(table)
	if err != nil {
		return 0, err
	}
	if err := (&source.TableInfo{Schema: b.schema}).CheckWrite(table, set, nil); err != nil {
		return 0, fmt.Errorf("kvstore %s: %w", s.name, err)
	}
	type change struct {
		oldKey types.Value
		row    types.Row
	}
	var updated []change
	var evalErr error
	b.tree.Ascend(Unbounded, Unbounded, func(k types.Value, r types.Row) bool {
		if filter != nil {
			ok, err := expr.EvalBool(filter, r)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		nr := r.Clone()
		for _, sc := range set {
			v, err := sc.Value.Eval(r)
			if err != nil {
				evalErr = err
				return false
			}
			nr[sc.Col] = v
		}
		updated = append(updated, change{oldKey: k, row: nr})
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	for _, ch := range updated {
		// A key-column update moves the entry.
		if !ch.oldKey.Equal(ch.row[b.keyCol]) {
			b.tree.Delete(ch.oldKey)
		}
		b.tree.Put(ch.row[b.keyCol], ch.row)
	}
	return int64(len(updated)), nil
}

// Delete implements source.Writer.
func (s *Store) Delete(_ context.Context, table string, filter expr.Expr) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.bucketLocked(table)
	if err != nil {
		return 0, err
	}
	var keys []types.Value
	var evalErr error
	b.tree.Ascend(Unbounded, Unbounded, func(k types.Value, r types.Row) bool {
		if filter != nil {
			ok, err := expr.EvalBool(filter, r)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		keys = append(keys, k)
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	for _, k := range keys {
		b.tree.Delete(k)
	}
	return int64(len(keys)), nil
}

// intersectValues keeps the values present in both sets.
func intersectValues(a, b []types.Value) []types.Value {
	var out []types.Value
	for _, x := range a {
		for _, y := range b {
			if x.Equal(y) {
				out = append(out, x)
				break
			}
		}
	}
	if out == nil {
		out = []types.Value{}
	}
	return out
}
