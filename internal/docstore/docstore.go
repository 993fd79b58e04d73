// Package docstore implements a JSON-document component system. Each
// collection stores schemaless documents, each encoded once into an
// immutable string (codec.go); a wrapper mapping ("this path is that
// column") projects documents onto a relational schema so the
// mediator can query them. The wrapper pushes down filters and
// projections (document databases evaluate per-document predicates) but
// not joins, grouping, or sorting.
package docstore

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// FieldMap binds one column of the exposed schema to a dotted path into
// the document (e.g. "address.city").
type FieldMap struct {
	Column types.Column
	Path   string
}

// Store is a set of document collections exposed as a weak source.
type Store struct {
	name string

	mu          sync.RWMutex
	collections map[string]*collection
}

type collection struct {
	fields []FieldMap
	paths  [][]uint64 // fields[i].Path as key indexes, compiled once
	schema *types.Schema
	keys   keyTable
	enc    encoder
	// docs holds the committed documents, each encoded in one string
	// (codec.go), which nothing can write. A position of docs is never
	// written again either: an insert appends, an update or a delete
	// publishes a new slice. A scan therefore borrows docs[:n:n] under
	// the read lock and reads it with the lock gone.
	docs []string
}

// New returns an empty document store.
func New(name string) *Store {
	return &Store{name: name, collections: make(map[string]*collection)}
}

// CreateCollection registers a collection with its field mapping.
func (s *Store) CreateCollection(name string, fields []FieldMap) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.collections[name]; dup {
		return fmt.Errorf("docstore %s: collection %q already exists", s.name, name)
	}
	if len(fields) == 0 {
		return fmt.Errorf("docstore %s: collection %q needs at least one field", s.name, name)
	}
	c := &collection{
		fields: append([]FieldMap(nil), fields...),
		paths:  make([][]uint64, len(fields)),
		keys:   keyTable{index: map[string]uint64{}},
	}
	c.enc.keys = &c.keys
	cols := make([]types.Column, len(fields))
	for i, f := range fields {
		if f.Path == "" {
			return fmt.Errorf("docstore %s: field %q has empty path", s.name, f.Column.Name)
		}
		cols[i] = f.Column
		for _, part := range strings.Split(f.Path, ".") {
			c.paths[i] = append(c.paths[i], c.keys.intern(part))
		}
	}
	c.schema = &types.Schema{Columns: cols}
	s.collections[name] = c
	return nil
}

// InsertJSON parses and stores one JSON document.
func (s *Store) InsertJSON(name string, doc string) error {
	var m map[string]any
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		return fmt.Errorf("docstore %s: bad document: %w", s.name, err)
	}
	return s.InsertDoc(name, m)
}

// InsertDoc stores one already-decoded document: its encoding, so the
// caller may go on to change doc. It holds what encoding/json decodes
// into an any — nil, bool, float64, json.Number, string, []any and
// map[string]any — and a document with anything else is refused.
func (s *Store) InsertDoc(name string, doc map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	enc, err := c.enc.encode(doc)
	if err != nil {
		return fmt.Errorf("docstore %s: %w", s.name, err)
	}
	c.docs = append(c.docs, enc)
	return nil
}

// Name implements source.Source.
func (s *Store) Name() string { return s.name }

// Tables implements source.Source.
func (s *Store) Tables(context.Context) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for n := range s.collections {
		out = append(out, n)
	}
	slices.Sort(out)
	return out, nil
}

// TableInfo implements source.Source.
func (s *Store) TableInfo(_ context.Context, name string) (*source.TableInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[name]
	if !ok {
		return nil, fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	return &source.TableInfo{Schema: c.schema, RowCount: int64(len(c.docs))}, nil
}

// Capabilities implements source.Source: filters and projections push
// down; aggregation, sorting and limiting do not. Writes are supported
// (rows map back onto document paths) but not transactions.
func (s *Store) Capabilities() source.Capabilities {
	return source.Capabilities{Filter: source.FilterFull, Project: true, Write: true}
}

// Execute implements source.Source: a scan of the collection as it was
// when Execute returned. Nothing is copied under the read lock; the
// documents are read, filtered and projected in Next, after it is gone.
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[q.Table]
	if !ok {
		return nil, fmt.Errorf("docstore %s: unknown collection %q", s.name, q.Table)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Check(s.Capabilities(), &source.TableInfo{Schema: c.schema}); err != nil {
		return nil, fmt.Errorf("docstore %s: %w", s.name, err)
	}
	return &scanIter{
		store: s.name, c: c, docs: c.docs[:len(c.docs):len(c.docs)],
		filter: q.Filter, cols: q.Columns,
		need: c.fieldsRead(q.Columns, q.Filter), scratch: make(types.Row, len(c.fields)),
	}, nil
}

// scanIter streams the documents of a view that pass the filter, as
// rows. One scratch row serves every document: only the fields the
// filter or the projection reads are extracted into it, and an output
// row is carved only for a document that passes — kept (the default),
// from a slab's chunks; lent, the one row every Next rewrites.
type scanIter struct {
	store   string
	c       *collection // fields, paths: fixed when it was created
	docs    []string
	filter  expr.Expr
	cols    []int // nil: every field
	need    []bool
	scratch types.Row
	slab    types.RowSlab
}

// Lend implements source.Lender.
func (it *scanIter) Lend() { it.slab.Lend() }

// Keep implements source.Keeper: the kept rows are carved from one block.
func (it *scanIter) Keep(n int) {
	w := len(it.scratch)
	if it.cols != nil {
		w = len(it.cols)
	}
	it.slab.Reserve(n, w)
}

// Next implements source.RowIter.
func (it *scanIter) Next() (types.Row, error) {
	for len(it.docs) > 0 {
		doc := it.docs[0]
		it.docs = it.docs[1:]
		match, err := it.c.matches(it.scratch, doc, it.need, it.filter)
		if err != nil {
			return nil, fmt.Errorf("docstore %s: %w", it.store, err)
		}
		if !match {
			continue
		}
		if it.cols == nil {
			row := it.slab.Next(len(it.scratch))
			copy(row, it.scratch)
			return row, nil
		}
		row := it.slab.Next(len(it.cols))
		for j, col := range it.cols {
			row[j] = it.scratch[col]
		}
		return row, nil
	}
	return nil, io.EOF
}

// Close implements source.RowIter.
func (it *scanIter) Close() error {
	it.docs = nil
	return nil
}

// fieldsRead marks the fields a statement reads: the projected columns
// (every field when cols is nil) and the columns the expressions
// reference. The rest of a scratch row stays NULL.
func (c *collection) fieldsRead(cols []int, exprs ...expr.Expr) []bool {
	// One mask per statement, not per document.
	read := make([]bool, len(c.fields))
	for i := range read {
		read[i] = cols == nil
	}
	for _, col := range cols {
		read[col] = true
	}
	for _, e := range exprs {
		expr.Columns(e, func(i int) {
			if i < len(read) {
				read[i] = true
			}
		})
	}
	return read
}

// extract projects the fields marked in need from one document onto
// row (as wide as the collection's schema), coercing the values to the
// declared column types. Missing paths yield NULL.
func (c *collection) extract(row types.Row, doc string, need []bool) error {
	for i, path := range c.paths {
		if !need[i] {
			continue
		}
		v, err := field(doc, path)
		if err == nil {
			v, err = v.Coerce(c.fields[i].Column.Type)
		}
		if err != nil {
			f := &c.fields[i]
			return fmt.Errorf("field %s (path %s): %w", f.Column.Name, f.Path, err)
		}
		row[i] = v
	}
	return nil
}

// setPath writes v at field i's path of doc, a decoded document the
// caller owns, and creates the objects on the way that are missing.
func (c *collection) setPath(doc map[string]any, i int, v any) error {
	path := c.paths[i]
	cur := doc
	for _, k := range path[:len(path)-1] {
		part := c.keys.names[k]
		next, ok := cur[part]
		if !ok {
			next = map[string]any{}
			cur[part] = next
		}
		if cur, ok = next.(map[string]any); !ok {
			return fmt.Errorf("path %s collides with a scalar at %s", c.fields[i].Path, part)
		}
	}
	cur[c.keys.names[path[len(path)-1]]] = v
	return nil
}

// toJSON converts a value to its JSON representation.
func toJSON(v types.Value) any {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindBool:
		return v.Bool()
	case types.KindInt:
		return float64(v.Int())
	case types.KindFloat:
		return v.Float()
	case types.KindTime:
		return v.Time().Format("2006-01-02T15:04:05.999999999Z07:00")
	default:
		return v.String()
	}
}

// Insert implements source.Writer: each row, normalized, becomes one
// document with the mapped paths set. Every document is made before any
// is stored, so a statement that fails leaves the collection as it was.
func (s *Store) Insert(_ context.Context, name string, rows []types.Row) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return 0, fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	if err := (&source.TableInfo{Schema: c.schema}).CheckWrite(name, nil, rows); err != nil {
		return 0, fmt.Errorf("docstore %s: %w", s.name, err)
	}
	docs := make([]string, len(rows))
	for n, r := range rows {
		nr, err := source.NormalizeRow(c.schema, r)
		doc := map[string]any{}
		for i := 0; err == nil && i < len(nr); i++ {
			if !nr[i].IsNull() {
				err = c.setPath(doc, i, toJSON(nr[i]))
			}
		}
		if err == nil {
			docs[n], err = c.enc.encode(doc)
		}
		if err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
	}
	c.docs = append(c.docs, docs...)
	return int64(len(docs)), nil
}

// Update implements source.Writer: a document whose extracted row
// matches the filter is decoded, gets the mapped paths of the SET clauses
// rewritten from source.SetRow's row over the fields the statement reads,
// and is encoded again. The new documents take the old ones' places in a
// new slice, and that is published only when every one is made: a
// filter, a SET value its column cannot hold or a path that fails leaves
// the collection as it was, and a scan that holds the old slice goes on
// reading the old documents.
func (s *Store) Update(_ context.Context, name string, filter expr.Expr, set []source.SetClause) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return 0, fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	if err := (&source.TableInfo{Schema: c.schema}).CheckWrite(name, set, nil); err != nil {
		return 0, fmt.Errorf("docstore %s: %w", s.name, err)
	}
	reads := []expr.Expr{filter}
	for _, sc := range set {
		reads = append(reads, sc.Value)
	}
	need := c.fieldsRead([]int{}, reads...)
	scratch := make(types.Row, len(c.fields))
	docs := slices.Clone(c.docs)
	var n int64
	for i, doc := range docs {
		match, err := c.matches(scratch, doc, need, filter)
		if err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		if !match {
			continue
		}
		nr, err := source.SetRow(c.schema, scratch, set)
		if err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		m := c.keys.decode(doc)
		for _, sc := range set {
			if err := c.setPath(m, sc.Col, toJSON(nr[sc.Col])); err != nil {
				return 0, fmt.Errorf("docstore %s: %w", s.name, err)
			}
		}
		if docs[i], err = c.enc.encode(m); err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		n++
	}
	c.docs = docs
	return n, nil
}

// Delete implements source.Writer. Every document is decided before the
// collection changes, so a filter that fails leaves it as it was.
func (s *Store) Delete(_ context.Context, name string, filter expr.Expr) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return 0, fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	need := c.fieldsRead([]int{}, filter)
	scratch := make(types.Row, len(c.fields))
	kept := make([]string, 0, len(c.docs))
	for _, doc := range c.docs {
		match, err := c.matches(scratch, doc, need, filter)
		if err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		if !match {
			kept = append(kept, doc)
		}
	}
	n := int64(len(c.docs) - len(kept))
	c.docs = kept
	return n, nil
}

// matches extracts doc's needed fields into scratch and evaluates the
// filter (nil matches everything) over it.
func (c *collection) matches(scratch types.Row, doc string, need []bool, filter expr.Expr) (bool, error) {
	if err := c.extract(scratch, doc, need); err != nil {
		return false, err
	}
	if filter == nil {
		return true, nil
	}
	return expr.EvalBool(filter, scratch)
}
