// Package relstore implements an embedded relational store: the
// strongest component system in the federation. It supports full
// predicate/projection/aggregation/sort/limit pushdown, hash indexes,
// transactional writes with an undo log, and two-phase-commit
// participation. Writers are serialized by a store-level lock (strict
// two-phase locking at store granularity) and change the committed data
// in place; a reader takes the lock only to open its query. A full scan
// then borrows the table's chunks as they stand (table.view) and reads
// them with the lock gone, and the first write to a chunk a scan may
// hold copies what it changes instead (table.own). A chunk keeps its rows
// as one types.Vector a column. A deleted row leaves a tombstone, and
// its position is never used again.
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
	// is row pos%chunkRows of chunk dir[pos/chunkRows]. A delete clears
	// the row's live bit, and nothing reclaims its position.
	dir []*chunk
	n   int
	// views counts the scans that borrowed dir (view). stamps holds a
	// chunk's 2 + width readings of it, one a part (own), in dir's order:
	// each taken when the part was made or last copied, dirStamp likewise
	// for dir's own array. Equal to views, no scan can hold the thing and
	// a writer changes it in place; behind, own copies it first. copied
	// counts the chunk headers so copied.
	views    atomic.Uint64
	stamps   []uint64
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

// chunkRows is how many rows a chunk holds: a full vector fills its
// allocator size class to within one row (TestChunkBytes) — 2 040 B of
// words in 2 KiB, 4 080 B of strings and the 8 B malloc header in 4 KiB.
const chunkRows = 255

// chunk is up to chunkRows rows as one vector per column, and a bitmap
// of the rows that are live. The last chunk's vectors grow as rows are
// appended (insertLocked), so a small table pays for its rows.
type chunk struct {
	cols []types.Vector
	live [(chunkRows + 63) / 64]uint64
}

// isLive reports whether row k of the chunk is live.
func (c *chunk) isLive(k int) bool { return c.live[k>>6]&(1<<(k&63)) != 0 }

// flipLive makes row k live, or a tombstone, when it is not.
func (c *chunk) flipLive(k int) { c.live[k>>6] ^= 1 << (k & 63) }

// decode puts row k's values of the first len(row) columns into row.
func (c *chunk) decode(k int, row types.Row) {
	for j := range row {
		row[j] = c.cols[j].At(k)
	}
}

// value returns row pos's value of column col.
func (t *table) value(pos, col int) types.Value {
	return t.dir[pos/chunkRows].cols[col].At(pos % chunkRows)
}

// view lends the table as it stands to a scan that reads it after the
// lock is gone: the chunks of its n rows. It costs one count, which
// tells the next write to each of them that it is no longer alone.
func (t *table) view() ([]*chunk, int) {
	t.views.Add(1)
	return t.dir[:len(t.dir):len(t.dir)], t.n
}

// The parts of a chunk own names besides column c's vector, which is c:
// the header, which holds the live bitmap, and the array of vector
// headers, which an append changes.
const (
	liveBits = -2
	vectors  = -1
)

// own returns chunk i for a writer to change a part of in place. What a
// view may hold of it is copied first: the header — into a directory
// itself copied once if a view may hold it — then the vector headers,
// then column part's values. An append needs no copy of the values: it
// writes past every view's n.
func (t *table) own(i, part int) *chunk {
	c := t.dir[i]
	v, st := t.views.Load(), t.stamps[i*(2+len(c.cols)):]
	if st[0] != v {
		if t.dirStamp != v {
			t.dir, t.dirStamp = slices.Clone(t.dir), v
		}
		cp := *c
		c, t.dir[i], st[0] = &cp, &cp, v
		t.copied.Add(1)
	}
	if part == liveBits {
		return c
	}
	if st[1] != v {
		c.cols, st[1] = slices.Clone(c.cols), v
	}
	if part >= 0 && st[2+part] != v {
		c.cols[part], st[2+part] = c.cols[part].Clone(), v
	}
	return c
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
		if t.dir[pos/chunkRows].isLive(pos % chunkRows) {
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

// Stats computes optimizer statistics for a table. It reads the table as
// a full scan does: it borrows the chunks under the read lock
// (table.view) and collects from them once the lock is gone, so no
// writer waits out the sort. A column's live values are gathered from
// its vectors into one scratch slice, reused from column to column.
func (s *Store) Stats(name string) (*stats.TableStats, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	dir, n := t.view()
	s.mu.RUnlock()
	ts := &stats.TableStats{Columns: make([]stats.ColumnStats, t.schema.Len())}
	vals := make([]types.Value, 0, n)
	for col := range ts.Columns {
		vals, nulls := vals[:0], int64(0)
		for cu := (cursor{dir: dir, n: int32(n)}); ; {
			pos, c, _ := cu.advance(nil, nil)
			if c == nil {
				break
			}
			if v := c.cols[col].At(pos % chunkRows); v.IsNull() {
				nulls++
			} else {
				vals = append(vals, v)
			}
		}
		ts.RowCount, ts.Columns[col] = int64(len(vals))+nulls, stats.CollectColumn(vals, nulls)
	}
	return ts, nil
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
	pos := t.n
	i, k := pos/chunkRows, pos%chunkRows
	if i == len(t.dir) {
		cols := make([]types.Vector, len(r))
		for j, col := range t.schema.Columns {
			cols[j] = types.NewVector(col.Type)
		}
		t.dir = append(t.dir, &chunk{cols: cols})
		for range 2 + len(cols) {
			t.stamps = append(t.stamps, t.views.Load())
		}
	}
	c := t.own(i, vectors)
	for j, v := range r {
		if v.IsNull() {
			c = t.own(i, j) // a NULL's bit may share a word with a viewed row's
		}
		if vec := &c.cols[j]; vec.Len() == vec.Cap() {
			vec.Grow(min(max(2*k, 8), chunkRows) - k)
		}
		c.cols[j].Append(v)
	}
	c.flipLive(k)
	t.n++
	t.linkLocked(pos)
	return pos
}

// setLiveLocked makes live row pos a tombstone, unlinked from every
// index, or — live — makes a tombstone the row its values still are.
func (t *table) setLiveLocked(pos int, live bool) {
	t.own(pos/chunkRows, liveBits).flipLive(pos % chunkRows)
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
	i, k := pos/chunkRows, pos%chunkRows
	for col, v := range r {
		if !t.dir[i].cols[col].Holds(k, v) {
			t.own(i, col).cols[col].Set(k, v)
		}
	}
}
