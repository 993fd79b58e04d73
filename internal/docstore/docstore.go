// Package docstore implements a JSON-document component system. Each
// collection stores schemaless documents; a wrapper mapping ("this path
// is that column") projects documents onto a relational schema so the
// mediator can query them. The wrapper pushes down filters and
// projections (document databases evaluate per-document predicates) but
// not joins, grouping, or sorting.
package docstore

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
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
	paths  [][]string // fields[i].Path split at the dots, once
	schema *types.Schema
	// docs holds the committed documents. A document, and every object
	// nested in it, is never written once it is here, and a position of
	// docs is never written again: an insert appends, an update or a
	// delete publishes a new slice. A scan therefore borrows docs[:n:n]
	// under the read lock and reads it with the lock gone.
	docs []map[string]any
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
	cols := make([]types.Column, len(fields))
	paths := make([][]string, len(fields))
	for i, f := range fields {
		if f.Path == "" {
			return fmt.Errorf("docstore %s: field %q has empty path", s.name, f.Column.Name)
		}
		cols[i] = f.Column
		paths[i] = strings.Split(f.Path, ".")
	}
	s.collections[name] = &collection{
		fields: append([]FieldMap(nil), fields...),
		paths:  paths,
		schema: &types.Schema{Columns: cols},
	}
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

// InsertDoc stores one already-decoded document.
func (s *Store) InsertDoc(name string, doc map[string]any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		return fmt.Errorf("docstore %s: unknown collection %q", s.name, name)
	}
	c.docs = append(c.docs, doc)
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
	docs    []map[string]any
	filter  expr.Expr
	cols    []int // nil: every field
	need    []bool
	scratch types.Row
	slab    types.RowSlab
}

// Lend implements source.Lender.
func (it *scanIter) Lend() { it.slab.Lend() }

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
// row (as wide as the collection's schema), coercing JSON values to the
// declared column types. Missing paths yield NULL.
func (c *collection) extract(row types.Row, doc map[string]any, need []bool) error {
	for i, path := range c.paths {
		if !need[i] {
			continue
		}
		raw, found := lookupPath(doc, path)
		if !found || raw == nil {
			row[i] = types.Null
			continue
		}
		f := &c.fields[i]
		v, err := fromJSON(raw)
		if err != nil {
			return fmt.Errorf("field %s (path %s): %w", f.Column.Name, f.Path, err)
		}
		cv, err := v.Coerce(f.Column.Type)
		if err != nil {
			return fmt.Errorf("field %s (path %s): %w", f.Column.Name, f.Path, err)
		}
		row[i] = cv
	}
	return nil
}

// lookupPath walks a path through nested JSON objects.
func lookupPath(doc map[string]any, path []string) (any, bool) {
	cur := any(doc)
	for _, part := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// fromJSON converts a decoded JSON scalar to a Value.
func fromJSON(raw any) (types.Value, error) {
	switch v := raw.(type) {
	case bool:
		return types.NewBool(v), nil
	case float64:
		// encoding/json decodes every number as float64; keep integral
		// values as INT so key joins behave.
		if v == float64(int64(v)) {
			return types.NewInt(int64(v)), nil
		}
		return types.NewFloat(v), nil
	case string:
		return types.NewString(v), nil
	case json.Number:
		if i, err := v.Int64(); err == nil {
			return types.NewInt(i), nil
		}
		f, err := v.Float64()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f), nil
	default:
		return types.Null, fmt.Errorf("unsupported JSON value %T (objects/arrays must be mapped by path)", raw)
	}
}

// setPath writes v at a path of doc, which the caller has made or
// copied. It creates the objects on the way that are missing and copies
// those that are there, so that nothing a committed document shares
// with doc is written.
func setPath(doc map[string]any, path []string, v any) error {
	cur := doc
	for i, part := range path[:len(path)-1] {
		var child map[string]any
		if next, ok := cur[part]; ok {
			if child, ok = next.(map[string]any); !ok {
				return fmt.Errorf("path %s collides with a scalar at %s", strings.Join(path, "."), path[i])
			}
		}
		child = cloneObject(child)
		cur[part] = child
		cur = child
	}
	cur[path[len(path)-1]] = v
	return nil
}

// cloneObject returns a copy of m, sharing its values, to write to.
func cloneObject(m map[string]any) map[string]any {
	if m == nil {
		return map[string]any{}
	}
	return maps.Clone(m)
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

// Insert implements source.Writer: each row becomes one document with
// the mapped paths set.
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
	var n int64
	for _, r := range rows {
		doc := map[string]any{}
		for i := range c.fields {
			if r[i].IsNull() {
				continue
			}
			if err := setPath(doc, c.paths[i], toJSON(r[i])); err != nil {
				return n, fmt.Errorf("docstore %s: %w", s.name, err)
			}
		}
		c.docs = append(c.docs, doc)
		n++
	}
	return n, nil
}

// Update implements source.Writer: documents whose extracted row matches
// the filter get the mapped paths of the SET clauses rewritten — in a
// copy, which shares with the document all but the objects along those
// paths. The copies take the documents' places in a new slice, and that
// is published only when every one is made: a filter, a SET expression
// or a path that fails leaves the collection as it was, and a scan that
// holds the old slice goes on reading the old documents.
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
		docs[i] = cloneObject(doc)
		for _, sc := range set {
			v, err := sc.Value.Eval(scratch)
			if err != nil {
				return 0, err
			}
			if err := setPath(docs[i], c.paths[sc.Col], toJSON(v)); err != nil {
				return 0, fmt.Errorf("docstore %s: %w", s.name, err)
			}
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
	kept := make([]map[string]any, 0, len(c.docs))
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
func (c *collection) matches(scratch types.Row, doc map[string]any, need []bool, filter expr.Expr) (bool, error) {
	if err := c.extract(scratch, doc, need); err != nil {
		return false, err
	}
	if filter == nil {
		return true, nil
	}
	return expr.EvalBool(filter, scratch)
}
