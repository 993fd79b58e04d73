// Package relstore implements an embedded relational store: the
// strongest component system in the federation. It supports full
// predicate/projection/aggregation/sort/limit pushdown, hash indexes,
// transactional writes with an undo log, and two-phase-commit
// participation. Writers are serialized by a store-level lock (strict
// two-phase locking at store granularity) and change the committed data
// in place; a reader takes the lock only to open its query. A full scan
// then borrows the table's chunks as they stand (table.view) and reads
// them with the lock gone, and the first write to a chunk a scan may
// hold copies that chunk instead of changing it (table.own). A deleted
// row leaves a tombstone, and its position is never used again.
package relstore

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// Store is an in-memory relational database exposed as a source.Source.
type Store struct {
	name string

	// mu is the data lock: a transaction holds it from its first write to
	// commit or abort.
	mu sync.RWMutex
	// catMu guards the table directory only, and is never held across
	// anything that blocks. What a table is — schema, key — is fixed at
	// creation, so metadata (Tables, TableInfo) is answered without mu:
	// it must not wait out a transaction, least of all one the asker
	// itself holds open (a wire server looks the schema up on behalf of
	// every write of a remote transaction).
	catMu  sync.RWMutex
	tables map[string]*table
}

type table struct {
	schema *types.Schema
	// key columns (for TableInfo and fast point access).
	key []int
	// dir lists the chunks that hold the committed data: row pos, of n,
	// is dir[pos/chunkRows][pos%chunkRows]. A row is replaced, never
	// mutated; a nil row is the tombstone a delete leaves, which scans
	// skip and nothing reclaims.
	dir []*chunk
	n   int
	// views counts the scans that borrowed dir (view). stamps[i] is its
	// reading when chunk i was made or last copied, dirStamp likewise
	// for dir's own array: equal to views, no scan can hold the thing
	// and a writer changes it in place; behind, own copies it first.
	// copied counts those chunk copies.
	views    atomic.Uint64
	stamps   []uint64
	dirStamp uint64
	copied   atomic.Int64
	// live counts non-tombstone rows; written under mu, read by
	// TableInfo without it.
	live atomic.Int64
	// hashIdx maps indexed column → value hash → row positions.
	hashIdx map[int]map[uint64][]int
}

// chunkRows is how many rows a chunk holds: 4 080 B of row headers,
// which with the allocator's 8-byte header is the 4 KiB size class to
// the byte (TestChunkBytes). A chunk is what the first write after a
// scan copies and what a table's last one leaves unused at most; the
// directory, which that write may copy too, is 8 B a chunk.
const chunkRows = 170

type chunk [chunkRows]types.Row

// at returns row pos, nil for a tombstone.
func (t *table) at(pos int) types.Row { return t.dir[pos/chunkRows][pos%chunkRows] }

// view lends the table as it stands to a scan that reads it after the
// lock is gone: the chunks of its n rows. It costs one count, which
// tells the next write to each of them that it is no longer alone.
func (t *table) view() ([]*chunk, int) {
	t.views.Add(1)
	return t.dir[:len(t.dir):len(t.dir)], t.n
}

// own returns the chunk of row pos for a writer to change: the chunk
// itself when no view was taken since it was made, else a copy, put in
// its place in a directory that is likewise copied once if a view may
// hold it. A slot past every view's n — an insert's — needs no own.
func (t *table) own(pos int) *chunk {
	i, v := pos/chunkRows, t.views.Load()
	if t.stamps[i] != v {
		if t.dirStamp != v {
			t.dir, t.dirStamp = slices.Clone(t.dir), v
		}
		c := *t.dir[i]
		t.dir[i], t.stamps[i] = &c, v
		t.copied.Add(1)
	}
	return t.dir[i]
}

// set puts r, or a tombstone, at the position of a row some scan may
// be reading.
func (t *table) set(pos int, r types.Row) { t.own(pos)[pos%chunkRows] = r }

// ViewCopies reports how many chunks the store's writers have copied
// because a scan had borrowed them.
func (s *Store) ViewCopies() int64 {
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.copied.Load()
	}
	return n
}

// New returns an empty store named name.
func New(name string) *Store {
	return &Store{name: name, tables: make(map[string]*table)}
}

// CreateTable registers a table. keyCols lists primary-key column
// positions (indexed automatically).
func (s *Store) CreateTable(name string, schema *types.Schema, keyCols ...int) error {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	if _, dup := s.tables[name]; dup {
		return fmt.Errorf("relstore %s: table %q already exists", s.name, name)
	}
	for _, k := range keyCols {
		if k < 0 || k >= schema.Len() {
			return fmt.Errorf("relstore %s: key column %d out of range for %q", s.name, k, name)
		}
	}
	t := &table{
		schema:  schema.Clone(),
		key:     append([]int(nil), keyCols...),
		hashIdx: make(map[int]map[uint64][]int),
	}
	for _, k := range keyCols {
		t.hashIdx[k] = make(map[uint64][]int)
	}
	s.tables[name] = t
	return nil
}

// CreateIndex adds a hash index on column col of table name.
func (s *Store) CreateIndex(name string, col int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.lookup(name)
	if err != nil {
		return err
	}
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("relstore %s: index column %d out of range", s.name, col)
	}
	if _, dup := t.hashIdx[col]; dup {
		return nil
	}
	idx := make(map[uint64][]int)
	for pos := 0; pos < t.n; pos++ {
		if r := t.at(pos); r != nil {
			h := r[col].Hash(0)
			idx[h] = append(idx[h], pos)
		}
	}
	t.hashIdx[col] = idx
	return nil
}

// lookup finds a table in the directory. Callers that go on to touch
// its rows hold mu; the directory itself needs only catMu.
func (s *Store) lookup(name string) (*table, error) {
	s.catMu.RLock()
	t, ok := s.tables[name]
	s.catMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("relstore %s: unknown table %q", s.name, name)
	}
	return t, nil
}

// Name implements source.Source.
func (s *Store) Name() string { return s.name }

// Tables implements source.Source.
func (s *Store) Tables(context.Context) ([]string, error) {
	s.catMu.RLock()
	defer s.catMu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	return out, nil
}

// TableInfo implements source.Source.
func (s *Store) TableInfo(_ context.Context, name string) (*source.TableInfo, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return &source.TableInfo{
		Schema:     t.schema,
		KeyColumns: t.key,
		RowCount:   t.live.Load(),
	}, nil
}

// Capabilities implements source.Source: the relational store pushes
// everything down and participates in transactions.
func (s *Store) Capabilities() source.Capabilities {
	return source.Capabilities{
		Filter:    source.FilterFull,
		Project:   true,
		Aggregate: true,
		Sort:      true,
		Limit:     true,
		Write:     true,
		Txn:       true,
	}
}

// Stats computes optimizer statistics for a table. It reads the table as
// a full scan does: it borrows the chunks under the read lock
// (table.view) and collects from them once the lock is gone, so no
// writer waits out the sort.
func (s *Store) Stats(name string) (*stats.TableStats, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	dir, n := t.view()
	s.mu.RUnlock()
	live := make([]types.Row, 0, n)
	for pos := 0; pos < n; pos++ {
		if r := dir[pos/chunkRows][pos%chunkRows]; r != nil {
			live = append(live, r)
		}
	}
	return stats.Collect(live, t.schema.Len()), nil
}

// Insert implements source.Writer (autocommit).
func (s *Store) Insert(ctx context.Context, tbl string, rows []types.Row) (int64, error) {
	tx, err := s.BeginTx(ctx)
	if err != nil {
		return 0, err
	}
	n, err := tx.Insert(ctx, tbl, rows)
	if err != nil {
		_ = tx.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	return n, tx.Commit(ctx)
}

// Update implements source.Writer (autocommit).
func (s *Store) Update(ctx context.Context, tbl string, filter expr.Expr, set []source.SetClause) (int64, error) {
	tx, err := s.BeginTx(ctx)
	if err != nil {
		return 0, err
	}
	n, err := tx.Update(ctx, tbl, filter, set)
	if err != nil {
		_ = tx.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	return n, tx.Commit(ctx)
}

// Delete implements source.Writer (autocommit).
func (s *Store) Delete(ctx context.Context, tbl string, filter expr.Expr) (int64, error) {
	tx, err := s.BeginTx(ctx)
	if err != nil {
		return 0, err
	}
	n, err := tx.Delete(ctx, tbl, filter)
	if err != nil {
		_ = tx.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	return n, tx.Commit(ctx)
}

// insertLocked appends a row and maintains indexes. Caller holds mu.
func (t *table) insertLocked(r types.Row) int {
	pos := t.n
	if pos == len(t.dir)*chunkRows {
		t.dir, t.stamps = append(t.dir, new(chunk)), append(t.stamps, t.views.Load())
	}
	t.dir[pos/chunkRows][pos%chunkRows] = r
	t.n++
	t.live.Add(1)
	for col, idx := range t.hashIdx {
		h := r[col].Hash(0)
		idx[h] = append(idx[h], pos)
	}
	return pos
}

// deleteLocked tombstones row pos. Its index entries stay where they
// are: they point at a nil row, which probes skip.
func (t *table) deleteLocked(pos int) types.Row {
	old := t.at(pos)
	if old == nil {
		return nil
	}
	t.set(pos, nil)
	t.live.Add(-1)
	return old
}

// replaceLocked overwrites row pos with r, keeping indexes consistent.
func (t *table) replaceLocked(pos int, r types.Row) types.Row {
	old := t.at(pos)
	t.set(pos, r)
	for col, idx := range t.hashIdx {
		oh := old[col].Hash(0)
		nh := r[col].Hash(0)
		if oh == nh {
			continue
		}
		bucket := idx[oh]
		for i, p := range bucket {
			if p == pos {
				bucket[i] = bucket[len(bucket)-1]
				idx[oh] = bucket[:len(bucket)-1]
				break
			}
		}
		idx[nh] = append(idx[nh], pos)
	}
	return old
}
