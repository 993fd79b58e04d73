// Package filestore implements the weakest component system in the
// federation: comma-separated text files exposed as scan-only tables.
// The wrapper can skip columns while parsing (projection pushdown) but
// evaluates no predicates — the mediator compensates for everything else.
// It models the flat-file systems an early global information system had
// to integrate. It splits records itself (scan.go): a field is a
// substring of the text it was read from.
package filestore

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"gis/internal/source"
	"gis/internal/types"
)

// Store exposes registered delimited files as tables.
type Store struct {
	name string

	mu     sync.RWMutex
	tables map[string]*fileTable
}

type fileTable struct {
	schema *types.Schema
	// path is read per query when set; otherwise data holds the raw
	// file contents (in-memory registration, used heavily by tests and
	// workload generators).
	path string
	data string
	// rowCount is -1 until the first full scan. Concurrent scans each
	// store it at EOF while TableInfo reads it.
	rowCount atomic.Int64
}

// New returns an empty file store.
func New(name string) *Store {
	return &Store{name: name, tables: make(map[string]*fileTable)}
}

// RegisterFile exposes the comma-separated file at path, which has no
// header record, as table name.
func (s *Store) RegisterFile(name, path string, schema *types.Schema) error {
	return s.register(name, &fileTable{schema: schema.Clone(), path: path})
}

// RegisterData exposes in-memory comma-separated text as table name.
func (s *Store) RegisterData(name, data string, schema *types.Schema) error {
	return s.register(name, &fileTable{schema: schema.Clone(), data: data})
}

func (s *Store) register(name string, t *fileTable) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return fmt.Errorf("filestore %s: table %q already exists", s.name, name)
	}
	t.rowCount.Store(-1)
	s.tables[name] = t
	return nil
}

// Name implements source.Source.
func (s *Store) Name() string { return s.name }

// Tables implements source.Source.
func (s *Store) Tables(context.Context) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	slices.Sort(out)
	return out, nil
}

// TableInfo implements source.Source.
func (s *Store) TableInfo(_ context.Context, name string) (*source.TableInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("filestore %s: unknown table %q", s.name, name)
	}
	return &source.TableInfo{Schema: t.schema, RowCount: t.rowCount.Load()}, nil
}

// Capabilities implements source.Source: scan-only with projection.
func (s *Store) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterNone, Project: true}
}

// Execute implements source.Source, streaming rows as the file parses.
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	t, ok := s.tables[q.Table]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("filestore %s: unknown table %q", s.name, q.Table)
	}
	if err := q.Check(s.Capabilities(), &source.TableInfo{Schema: t.schema}); err != nil {
		return nil, fmt.Errorf("filestore %s: %w", s.name, err)
	}
	it := &csvIter{ctx: ctx, store: s.name, t: t, cols: q.Columns}
	it.recs = records{text: t.data, last: true, fields: make([]string, 0, t.schema.Len())}
	if t.path != "" {
		f, err := os.Open(t.path)
		if err != nil {
			return nil, fmt.Errorf("filestore %s: %w", s.name, err)
		}
		it.file = f
		it.recs.in, it.recs.block, it.recs.last = f, blockBytes, false
	}
	return it, nil
}

type csvIter struct {
	ctx   context.Context
	store string
	t     *fileTable
	recs  records
	file  *os.File // nil: an in-memory table
	cols  []int    // nil: every column
	slab  types.RowSlab
	count int64
	done  bool
}

// Lend implements source.Lender: every record is parsed into one row,
// and a scan allocates nothing else per record.
func (it *csvIter) Lend() { it.slab.Lend() }

// Keep implements source.Keeper: the kept rows are carved from one block.
func (it *csvIter) Keep(n int) {
	w := it.t.schema.Len()
	if it.cols != nil {
		w = len(it.cols)
	}
	it.slab.Reserve(n, w)
}

// Next implements source.RowIter.
func (it *csvIter) Next() (types.Row, error) {
	if it.done {
		return nil, io.EOF
	}
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	rec, err := it.recs.next()
	if err == io.EOF {
		it.done = true
		it.t.rowCount.Store(it.count)
		return nil, io.EOF
	}
	it.count++
	if err != nil {
		return nil, fmt.Errorf("filestore %s: record %d: %w", it.store, it.count, err)
	}
	schema := it.t.schema
	if len(rec) != schema.Len() {
		return nil, fmt.Errorf("filestore %s: record %d has %d fields, want %d", it.store, it.count, len(rec), schema.Len())
	}
	w := len(rec)
	if it.cols != nil {
		w = len(it.cols)
	}
	row := it.slab.Next(w)
	for i := range row {
		col := i
		if it.cols != nil {
			col = it.cols[i]
		}
		if rec[col] == "" {
			continue // NULL, which a carved row already holds
		}
		v, err := types.NewString(rec[col]).Coerce(schema.Columns[col].Type)
		if err != nil {
			return nil, fmt.Errorf("filestore %s: record %d column %s: %w", it.store, it.count, schema.Columns[col].Name, err)
		}
		row[i] = v
	}
	return row, nil
}

// Close implements source.RowIter.
func (it *csvIter) Close() error {
	it.done = true
	if it.file == nil {
		return nil
	}
	f := it.file
	it.file = nil
	return f.Close()
}
