package types

import (
	"fmt"
	"strings"
)

// Row is one tuple. Rows flowing through the executor are read-only; an
// operator that needs to modify a row must copy it first.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports identity equality of two rows (NULL == NULL).
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Hash hashes the row for grouping and hash joins.
func (r Row) Hash() uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range r {
		h = v.Hash(h)
	}
	return h
}

// Compare orders two rows lexicographically.
func (r Row) Compare(o Row) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	return len(r) - len(o)
}

// String renders the row for debugging: (v1, v2, ...).
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a relation in the global type system.
type Column struct {
	// Table is the qualifier (alias or table name); empty for derived
	// columns such as aggregate outputs.
	Table string
	// Name is the attribute name.
	Name string
	// Type is the attribute's kind in the global type system.
	Type Kind
	// Nullable reports whether NULLs may appear.
	Nullable bool
}

// QualifiedName returns "table.name" or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema describes the shape of a relation.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return &Schema{Columns: cols}
}

// Concat returns a schema that is s followed by o (the shape of a join).
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// IndexOf resolves a possibly-qualified column reference to an index.
// It returns the column index, or an error if the reference is unknown or
// ambiguous. table may be empty for an unqualified reference.
func (s *Schema) IndexOf(table, name string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", joinRef(table, name))
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown column %q", joinRef(table, name))
	}
	return found, nil
}

func joinRef(table, name string) string {
	if table == "" {
		return name
	}
	return table + "." + name
}

// String renders the schema for EXPLAIN output.
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.QualifiedName(), c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// EstimatedSize returns the approximate serialized footprint of the row
// in bytes (see Value.EstimatedSize).
func (r Row) EstimatedSize() int {
	n := 1
	for _, v := range r {
		n += v.EstimatedSize()
	}
	return n
}
