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
	docs   []map[string]any
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

// Execute implements source.Source.
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
	w := len(c.fields)
	if q.Columns != nil {
		w = len(q.Columns)
	}
	// One scratch row serves every document: only the fields the filter
	// or the projection reads are extracted into it, and an output row
	// is carved only for a document that passes.
	need := c.fieldsRead(q.Columns, q.Filter)
	scratch := make(types.Row, len(c.fields))
	var slab types.RowSlab
	out := &rowChunks{}
	for _, doc := range c.docs {
		match, err := c.matches(scratch, doc, need, q.Filter)
		if err != nil {
			return nil, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		if !match {
			continue
		}
		row := slab.Next(w)
		if q.Columns == nil {
			copy(row, scratch)
		} else {
			for j, col := range q.Columns {
				row[j] = scratch[col]
			}
		}
		out.add(row)
	}
	return out, nil
}

// rowChunks is a result whose size is not known until the scan ends:
// rows are added to chunks that are never regrown — the first small,
// each next one twice the last up to maxChunk — and read back in order
// as a source.RowIter. Growing one slice by append would copy every row
// header about twice more and leave the copies as garbage.
type rowChunks struct {
	chunks [][]types.Row
	c, i   int // Next's position: chunk and row within it
}

const (
	firstChunk = 16
	maxChunk   = 1024
)

func (rc *rowChunks) add(r types.Row) {
	last := len(rc.chunks) - 1
	if last < 0 || len(rc.chunks[last]) == cap(rc.chunks[last]) {
		n := firstChunk
		if last >= 0 {
			n = min(2*cap(rc.chunks[last]), maxChunk)
		}
		rc.chunks = append(rc.chunks, make([]types.Row, 0, n))
		last++
	}
	rc.chunks[last] = append(rc.chunks[last], r)
}

// Next implements source.RowIter.
func (rc *rowChunks) Next() (types.Row, error) {
	for rc.c < len(rc.chunks) {
		if ch := rc.chunks[rc.c]; rc.i < len(ch) {
			rc.i++
			return ch[rc.i-1], nil
		}
		rc.c, rc.i = rc.c+1, 0
	}
	return nil, io.EOF
}

// Close implements source.RowIter.
func (rc *rowChunks) Close() error { return nil }

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

// setPath writes v at a dotted path, creating intermediate objects.
func setPath(doc map[string]any, path string, v any) error {
	parts := strings.Split(path, ".")
	cur := doc
	for i, part := range parts {
		if i == len(parts)-1 {
			cur[part] = v
			return nil
		}
		next, ok := cur[part]
		if !ok {
			child := map[string]any{}
			cur[part] = child
			cur = child
			continue
		}
		child, isMap := next.(map[string]any)
		if !isMap {
			return fmt.Errorf("path %s collides with a scalar at %s", path, part)
		}
		cur = child
	}
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
		for i, f := range c.fields {
			if r[i].IsNull() {
				continue
			}
			if err := setPath(doc, f.Path, toJSON(r[i])); err != nil {
				return n, fmt.Errorf("docstore %s: %w", s.name, err)
			}
		}
		c.docs = append(c.docs, doc)
		n++
	}
	return n, nil
}

// Update implements source.Writer: documents whose extracted row matches
// the filter get the mapped paths of the SET clauses rewritten. Every
// new value is computed before any document is written, so a filter or
// SET expression that fails leaves the collection as it was.
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
	var hits []map[string]any
	var vals []any // len(set) new values per hit
	for _, doc := range c.docs {
		match, err := c.matches(scratch, doc, need, filter)
		if err != nil {
			return 0, fmt.Errorf("docstore %s: %w", s.name, err)
		}
		if !match {
			continue
		}
		for _, sc := range set {
			v, err := sc.Value.Eval(scratch)
			if err != nil {
				return 0, err
			}
			vals = append(vals, toJSON(v))
		}
		hits = append(hits, doc)
	}
	for i, doc := range hits {
		for j, sc := range set {
			if err := setPath(doc, c.fields[sc.Col].Path, vals[i*len(set)+j]); err != nil {
				return int64(i), fmt.Errorf("docstore %s: %w", s.name, err)
			}
		}
	}
	return int64(len(hits)), nil
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
