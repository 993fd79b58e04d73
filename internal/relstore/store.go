// Package relstore implements an embedded relational store: the
// strongest component system in the federation. It supports full
// predicate/projection/aggregation/sort/limit pushdown, hash indexes,
// transactional writes with an undo log, and two-phase-commit
// participation. Writers are serialized by a store-level lock (strict
// two-phase locking at store granularity) and change the committed data
// in place; a reader takes the lock only to open its query. A full scan
// then borrows the table's chunks (types.Chunk, table.view) and reads
// them with the lock gone. A deleted row leaves a tombstone, and its
// position is never used again.
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
	// is row pos%ChunkRows of chunk dir[pos/ChunkRows].
	dir []*types.Chunk
	n   int
	// views counts the scans that borrowed dir (view), dirStamp is its
	// count when dir's array was made or last copied, and copied counts
	// the chunk headers copied because a view may have held them (own).
	views    atomic.Uint64
	dirStamp uint64
	copied   atomic.Int64
	// probing counts the index probes still being read (Tx.table).
	probing atomic.Int64
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

// link links live row pos under its value of col.
func (x *hashIndex) link(pos int) { x.Link(pos, x.rehash(pos), x.rehash) }

// rehash is the hash live row p is linked under: its column's value's.
func (x *hashIndex) rehash(p int) uint64 { return x.t.value(p, x.col).Hash(0) }

// index returns the hash index on column col, or nil.
func (t *table) index(col int) *hashIndex {
	for _, x := range t.indexes {
		if x.col == col {
			return x
		}
	}
	return nil
}

// value returns row pos's value of column col.
func (t *table) value(pos, col int) types.Value {
	return t.dir[pos/types.ChunkRows].Cols[col].At(pos % types.ChunkRows)
}

// view lends the chunks of the table's n rows to a scan that reads them
// after the lock is gone, for one count, which the next writes read.
func (t *table) view() ([]*types.Chunk, int) {
	t.views.Add(1)
	return t.dir[:len(t.dir):len(t.dir)], t.n
}

// own returns chunk i for the writer to change, and the count of views
// to own its vectors by (types.Chunk.Own): its header is copied first,
// into a directory itself copied if need be, when a view may hold it.
func (t *table) own(i int) (*types.Chunk, uint64) {
	c, v := t.dir[i], t.views.Load()
	if c.Claim(v) {
		if t.dirStamp != v {
			t.dir, t.dirStamp = slices.Clone(t.dir), v
		}
		cp := *c
		c, t.dir[i] = &cp, &cp
		t.copied.Add(1)
	}
	return c, v
}

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
		if t.dir[pos/types.ChunkRows].Live(pos % types.ChunkRows) {
			x.link(pos)
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

// Stats implements source.StatsProvider. It borrows the chunks under the
// read lock, as a full scan does, and collects from them once the lock
// is gone (stats.CollectChunks), so no writer waits out the sort.
func (s *Store) Stats(name string) (*stats.TableStats, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	dir, _ := t.view()
	s.mu.RUnlock()
	return stats.CollectChunks(dir, t.schema.Len()), nil
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

// insertLocked appends r, whose values are of its columns' kinds, and
// links it into every index. Caller holds mu and has checked that the
// table holds fewer than maxRows.
func (t *table) insertLocked(r types.Row) int {
	pos, i := t.n, t.n/types.ChunkRows
	if i == len(t.dir) {
		c := types.NewChunk(t.schema.Columns, t.views.Load())
		t.dir = append(t.dir, &c)
	}
	c, v := t.own(i)
	c.Append(v, r)
	t.n++
	t.linkLocked(pos)
	return pos
}

// setLiveLocked makes live row pos a tombstone, unlinked from every
// index, or — live — makes a tombstone the row its values still are.
func (t *table) setLiveLocked(pos int, live bool) {
	c, _ := t.own(pos / types.ChunkRows)
	c.SetLive(pos%types.ChunkRows, live)
	if live {
		t.linkLocked(pos)
		return
	}
	for _, x := range t.indexes {
		x.Unlink(pos, x.rehash(pos))
	}
	t.live.Add(-1)
}

// linkLocked counts live row pos and links it into every index.
func (t *table) linkLocked(pos int) {
	t.live.Add(1)
	for _, x := range t.indexes {
		x.link(pos)
	}
}

// replaceLocked writes r over live row pos, relinking it in every index
// whose column's hash that changes. Only the values r changes, bit for
// bit, are written, so no other column's vector is copied.
func (t *table) replaceLocked(pos int, r types.Row) {
	for _, x := range t.indexes {
		if oh, nh := x.rehash(pos), r[x.col].Hash(0); oh != nh {
			// Unlinked, the row is not among those a growing chain
			// rehashes: it may be linked before it is written.
			x.Unlink(pos, oh)
			x.Link(pos, nh, x.rehash)
		}
	}
	i, k := pos/types.ChunkRows, pos%types.ChunkRows
	for col, x := range r {
		if !t.dir[i].Cols[col].Holds(k, x) {
			c, v := t.own(i)
			c.Own(v, col, 0, false).Set(k, x)
		}
	}
}
