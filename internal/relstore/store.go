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
//
// A hash index (hashIndex) is a types.HashChain of the live rows'
// positions, so a table holds at most maxRows rows. A probe yields
// positions in table order, which a chain does not keep once a write
// relinks a row: it sorts what it walked.
package relstore

import (
	"context"
	"fmt"
	"math"
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
	// indexes are the table's hash indexes, the key columns' first.
	indexes []*hashIndex
}

// maxRows is how many rows a table holds: a position is an int32.
const maxRows = math.MaxInt32

// hashIndex is a hash index on column col: a chain of the live rows'
// positions under their values' hashes, about 8–16 B a row. A delete
// unlinks its row and an abort's undo links it again, so no tombstone is
// linked and growth rehashes live rows only.
type hashIndex struct {
	t   *table
	col int
	types.HashChain
}

// link links live row pos, which holds r, under r's value of col.
func (x *hashIndex) link(pos int, r types.Row) { x.Link(pos, r[x.col].Hash(0), x.rehash) }

// rehash is the hash live row p is linked under.
func (x *hashIndex) rehash(p int) uint64 { return x.t.at(p)[x.col].Hash(0) }

// index returns the hash index on column col, or nil.
func (t *table) index(col int) *hashIndex {
	for _, x := range t.indexes {
		if x.col == col {
			return x
		}
	}
	return nil
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
	t := &table{schema: schema.Clone(), key: append([]int(nil), keyCols...)}
	for _, k := range keyCols {
		if t.index(k) == nil {
			t.indexes = append(t.indexes, &hashIndex{t: t, col: k})
		}
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
	if t.index(col) != nil {
		return nil
	}
	x := &hashIndex{t: t, col: col, HashChain: types.NewHashChain(t.n)}
	for pos := 0; pos < t.n; pos++ {
		if r := t.at(pos); r != nil {
			x.link(pos, r)
		}
	}
	t.indexes = append(t.indexes, x)
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
	slices.Sort(out)
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

// autocommit runs one write as a transaction of its own.
func (s *Store) autocommit(ctx context.Context, write func(*Tx) (int64, error)) (int64, error) {
	tx := &Tx{s: s}
	n, err := write(tx)
	if err != nil {
		_ = tx.Abort(ctx) // best-effort rollback; the original error wins
		return 0, err
	}
	return n, tx.Commit(ctx)
}

// Insert implements source.Writer (autocommit).
func (s *Store) Insert(ctx context.Context, tbl string, rows []types.Row) (int64, error) {
	return s.autocommit(ctx, func(tx *Tx) (int64, error) { return tx.Insert(ctx, tbl, rows) })
}

// Update implements source.Writer (autocommit).
func (s *Store) Update(ctx context.Context, tbl string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return s.autocommit(ctx, func(tx *Tx) (int64, error) { return tx.Update(ctx, tbl, filter, set) })
}

// Delete implements source.Writer (autocommit).
func (s *Store) Delete(ctx context.Context, tbl string, filter expr.Expr) (int64, error) {
	return s.autocommit(ctx, func(tx *Tx) (int64, error) { return tx.Delete(ctx, tbl, filter) })
}

// insertLocked appends a row and links it into every index. Caller
// holds mu and has checked that the table holds fewer than maxRows.
func (t *table) insertLocked(r types.Row) int {
	pos := t.n
	if pos == len(t.dir)*chunkRows {
		t.dir, t.stamps = append(t.dir, new(chunk)), append(t.stamps, t.views.Load())
	}
	t.dir[pos/chunkRows][pos%chunkRows] = r
	t.n++
	t.linkLocked(pos, r)
	return pos
}

// deleteLocked unlinks row pos from every index and tombstones it.
func (t *table) deleteLocked(pos int) types.Row {
	old := t.at(pos)
	if old == nil {
		return nil
	}
	for _, x := range t.indexes {
		x.Unlink(pos, old[x.col].Hash(0))
	}
	t.set(pos, nil)
	t.live.Add(-1)
	return old
}

// linkLocked counts r, just put at pos, live and links it into every
// index.
func (t *table) linkLocked(pos int, r types.Row) {
	t.live.Add(1)
	for _, x := range t.indexes {
		x.link(pos, r)
	}
}

// replaceLocked overwrites live row pos with r, and relinks it in every
// index whose column's hash r changes.
func (t *table) replaceLocked(pos int, r types.Row) types.Row {
	old := t.at(pos)
	t.set(pos, r)
	for _, x := range t.indexes {
		if oh := old[x.col].Hash(0); oh != r[x.col].Hash(0) {
			x.Unlink(pos, oh)
			x.link(pos, r)
		}
	}
	return old
}
