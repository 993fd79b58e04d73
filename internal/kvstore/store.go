package kvstore

import (
	"context"
	"fmt"
	"io"
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

// Execute implements source.Source. Per the capability contract every
// conjunct of the filter constrains the key column to constants
// (expr.ColumnConstraint), and Execute refuses any other; what they admit
// together is one expr.Range. Keys it names — by equality, or in a list —
// are looked up one by one and their rows' headers copied; any other
// query is a scan of a key range, the whole bucket with no filter at
// all, and borrows the tree (BTree.view): Execute copies nothing, and
// Next walks, with the lock gone, the bucket as it was when Execute
// returned. Writers pay for that, once a node; a lookup takes no view so
// that a point read never makes the next write copy anything.
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
	r, other := expr.ColumnRange(q.Filter, b.keyCol)
	if other != nil {
		return nil, fmt.Errorf("kvstore %s: unsupported pushed predicate %s", s.name, other)
	}
	keys := r.Keys
	if k, ok := r.Point(); ok {
		keys = []types.Value{k}
	}
	if keys == nil {
		it := &scanIter{hi: r.Hi, limit: q.Limit}
		it.at.seek(b.tree.view(), r.Lo)
		return it, nil
	}
	// Keyed access (a pushed key = or key IN (...), or shipped join
	// keys): one point lookup per key of the range, which are in key
	// order as a range scan would answer, distinct and within its bounds.
	var rows []types.Row
	for _, k := range keys {
		if q.Limit >= 0 && int64(len(rows)) >= q.Limit {
			break
		}
		if row, ok := b.tree.Get(k); ok {
			rows = append(rows, row)
		}
	}
	return source.SliceIter(rows), nil
}

// scanIter streams a key range of a view of a bucket, up to a limit.
// Its rows are the committed rows themselves, which are replaced and
// never written again: there is nothing for it to lend.
type scanIter struct {
	at    cursor
	hi    expr.Bound
	limit int64 // rows still wanted; negative: all
}

// Next implements source.RowIter.
func (it *scanIter) Next() (types.Row, error) {
	if it.limit != 0 {
		if e, ok := it.at.next(); ok && !it.hi.ExcludesAbove(e.key) {
			if it.limit > 0 {
				it.limit--
			}
			return e.val, nil
		}
		it.limit = 0
	}
	return nil, io.EOF
}

// Close implements source.RowIter.
func (it *scanIter) Close() error {
	it.limit = 0
	return nil
}

// Insert implements source.Writer. A row is stored as a copy, each value
// coerced to its column's type. Every row is decided before any is
// stored, so a statement that fails leaves the bucket as it was: a value
// its column cannot hold, a NULL key, a key the bucket or an earlier row has.
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
	normal := make([]types.Row, len(rows))
	taken := NewBTree() // the keys of the earlier rows
	for i, r := range rows {
		nr, err := source.NormalizeRow(b.schema, r)
		if err != nil {
			return 0, fmt.Errorf("kvstore %s bucket %s: %w", s.name, table, err)
		}
		k := nr[b.keyCol]
		if k.IsNull() {
			return 0, fmt.Errorf("kvstore %s: NULL key", s.name)
		}
		if _, held := b.tree.Get(k); held || !taken.Put(k, nil) {
			return 0, fmt.Errorf("kvstore %s: duplicate key %v", s.name, k)
		}
		normal[i] = nr
	}
	for _, nr := range normal {
		b.tree.Put(nr[b.keyCol], nr)
	}
	return int64(len(normal)), nil
}

// Update implements source.Writer. The filter is evaluated at the
// mediator's behest over full rows (the wrapper applies it here since
// only it can see the data). Every change is decided before any is
// applied, so a statement that fails leaves the bucket as it was: a SET
// value its column cannot hold, a row moved to the NULL key, to a key
// the bucket held when the statement began, or to the key another row
// of the statement moves to.
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
	var taken *BTree // the keys rows move to
	b.tree.Ascend(expr.Unbounded, expr.Unbounded, func(k types.Value, r types.Row) bool {
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
			if err == nil {
				v, err = source.CoerceForColumn(v, b.schema.Columns[sc.Col].Type)
			}
			if err != nil {
				evalErr = err
				return false
			}
			nr[sc.Col] = v
		}
		if nk := nr[b.keyCol]; !nk.Equal(k) {
			if taken == nil {
				taken = NewBTree()
			}
			_, held := b.tree.Get(nk)
			switch {
			case nk.IsNull():
				evalErr = fmt.Errorf("kvstore %s: NULL key", s.name)
			case held || !taken.Put(nk, nil):
				evalErr = fmt.Errorf("kvstore %s: duplicate key %v", s.name, nk)
			}
		}
		updated = append(updated, change{oldKey: k, row: nr})
		return evalErr == nil
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
	b.tree.Ascend(expr.Unbounded, expr.Unbounded, func(k types.Value, r types.Row) bool {
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
