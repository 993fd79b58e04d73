package kvstore

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
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
	schema = schema.Clone()
	s.buckets[name] = &bucket{schema: schema, keyCol: keyCol, tree: NewBTree(schema, keyCol)}
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
	slices.Sort(out)
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

// Stats implements source.StatsProvider. It takes a view under the read
// lock, as a scan does, and collects from its leaves with the lock gone.
func (s *Store) Stats(name string) (*stats.TableStats, error) {
	s.mu.RLock()
	b, err := s.bucketLocked(name)
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	v := b.tree.view()
	s.mu.RUnlock()
	return stats.CollectChunks(leaves(v.root, nil), b.schema.Len()), nil
}

// Execute implements source.Source. Per the capability contract every
// conjunct of the filter constrains the key column to constants
// (expr.ColumnConstraint), and Execute refuses any other; what they admit
// together is one expr.Range. Keys it names — by equality, or in a list —
// are looked up one by one and their rows decoded into one slab, with no
// view taken; any other query is a scan of a key range, which borrows
// the tree (BTree.view) and reads it in Next, with the lock gone.
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
	var one [1]types.Value
	keys := r.Points(one[:0])
	if keys == nil {
		it := &scanIter{hi: r.Hi, limit: q.Limit, width: b.schema.Len()}
		it.at.seek(b.tree.view(), r.Lo)
		return it, nil
	}
	// Keyed access (a pushed key = or key IN (...), or shipped join
	// keys): one point lookup per key of the range, which are in key
	// order as a range scan would answer, distinct and within its bounds.
	var rows []types.Row
	var slab types.RowSlab
	for _, k := range keys {
		if q.Limit >= 0 && int64(len(rows)) >= q.Limit {
			break
		}
		if l, i, ok := b.tree.lookup(k); ok {
			rows = append(rows, l.Emit(i, nil, nil, &slab))
		}
	}
	return source.SliceIter(rows), nil
}

// scanIter streams a key range of a view of a bucket, up to a limit,
// each row emitted into its slab (types.Chunk.Emit).
type scanIter struct {
	at    cursor
	hi    expr.Bound
	limit int64 // rows still wanted; negative: all
	width int   // of a row: every column of the bucket
	slab  types.RowSlab
}

// Lend implements source.Lender.
func (it *scanIter) Lend() { it.slab.Lend() }

// Keep implements source.Keeper: the kept rows are carved from one block.
func (it *scanIter) Keep(n int) { it.slab.Reserve(n, it.width) }

// Next implements source.RowIter.
func (it *scanIter) Next() (types.Row, error) {
	if it.limit != 0 {
		if l, i, ok := it.at.step(); ok && !it.hi.ExcludesAbove(l.Cols[it.at.key].At(i)) {
			if it.limit > 0 {
				it.limit--
			}
			return l.Emit(i, nil, nil, &it.slab), nil
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
	var taken types.ValueSet // the keys of the earlier rows
	for i, r := range rows {
		nr, err := source.NormalizeRow(b.schema, r)
		if err != nil {
			return 0, fmt.Errorf("kvstore %s bucket %s: %w", s.name, table, err)
		}
		k := nr[b.keyCol]
		if k.IsNull() {
			return 0, fmt.Errorf("kvstore %s: NULL key", s.name)
		}
		if _, _, held := b.tree.lookup(k); held || !taken.Add(k) {
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
	var taken types.ValueSet // the keys rows move to
	err = b.match(filter, func(k types.Value, r types.Row) error {
		nr, err := source.SetRow(b.schema, r, set)
		if err != nil {
			return fmt.Errorf("kvstore %s bucket %s: %w", s.name, table, err)
		}
		if nk := nr[b.keyCol]; !nk.Equal(k) {
			_, _, held := b.tree.lookup(nk)
			switch {
			case nk.IsNull():
				return fmt.Errorf("kvstore %s: NULL key", s.name)
			case held || !taken.Add(nk):
				return fmt.Errorf("kvstore %s: duplicate key %v", s.name, nk)
			}
		}
		updated = append(updated, change{oldKey: k, row: nr})
		return nil
	})
	if err != nil {
		return 0, err
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
	err = b.match(filter, func(k types.Value, _ types.Row) error {
		keys = append(keys, k)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		b.tree.Delete(k)
	}
	return int64(len(keys)), nil
}

// match calls fn, in key order until it errs, with each entry of b that
// passes filter: as Execute does, it looks up the keys the filter's
// range on the key column names, or walks that range, and it evaluates
// the whole filter over each row found, decoded into a scratch row that
// fn copies what it keeps of. Caller holds mu, and takes no view.
func (b *bucket) match(filter expr.Expr, fn func(k types.Value, r types.Row) error) error {
	r := make(types.Row, b.schema.Len())
	visit := func(l *node, i int) error {
		l.Decode(i, r)
		if filter != nil {
			if ok, err := expr.EvalBool(filter, r); err != nil || !ok {
				return err
			}
		}
		return fn(l.Cols[b.keyCol].At(i), r)
	}
	rg, _ := expr.ColumnRange(filter, b.keyCol)
	var one [1]types.Value
	if keys := rg.Points(one[:0]); keys != nil {
		for _, k := range keys {
			if l, i, ok := b.tree.lookup(k); ok {
				if err := visit(l, i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var c cursor
	c.seek(treeView{b.tree.root, b.keyCol}, rg.Lo)
	for l, i, ok := c.step(); ok && !rg.Hi.ExcludesAbove(l.Cols[b.keyCol].At(i)); l, i, ok = c.step() {
		if err := visit(l, i); err != nil {
			return err
		}
	}
	return nil
}
