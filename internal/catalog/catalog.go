// Package catalog implements the mediator's global schema: the registry
// of component sources, the global tables presented to users, and the
// GAV (global-as-view) mappings that define each global table as a union
// of fragments drawn from the sources.
//
// A fragment maps one remote table onto the global schema, resolving the
// heterogeneity the paper enumerates: attribute naming (position maps),
// representation conflicts (value maps), unit conflicts (affine
// conversions), missing attributes (constants), and horizontal
// partitioning (per-fragment predicates).
package catalog

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/stats"
	"gis/internal/types"
)

// ColumnMapping defines how one global column is derived from a
// fragment's remote table.
type ColumnMapping struct {
	// RemoteCol is the position in the remote table's schema; -1 when
	// the column does not exist remotely (Const must then be set).
	RemoteCol int
	// Scale/Offset apply an affine unit conversion to numeric columns:
	// global = remote*Scale + Offset. Zero value (Scale 0) means
	// identity; Scale must be non-zero when used.
	Scale  float64
	Offset float64
	// ValueMap translates remote string codes to global ones (e.g.
	// {"M": "male"}). Values absent from the map pass through.
	ValueMap map[string]string
	// Const supplies the column's value when RemoteCol is -1.
	Const *types.Value

	// inverse of ValueMap, built on registration; nil when ValueMap is
	// not bijective (then predicates on this column cannot push down).
	inverse map[string]string
	// remoteKind and globalKind are the column's kind at the source and
	// in the global schema, recorded on registration. Where they differ
	// every value is coerced on its way up.
	remoteKind, globalKind types.Kind
}

// Identity reports whether the mapping is a plain column reference with
// no transformation: the source's value is the global value, kind and
// all.
func (m *ColumnMapping) Identity() bool {
	return m.RemoteCol >= 0 && m.Scale == 0 && m.ValueMap == nil && m.Const == nil && !m.Retyped()
}

// Retyped reports whether the column's remote kind is not its global
// kind: its values are coerced on their way up (a remote INT read as a
// global FLOAT, say).
func (m *ColumnMapping) Retyped() bool { return m.remoteKind != m.globalKind }

// Injective reports whether distinct remote values read as distinct
// global values, so that grouping by the remote column groups by the
// global one. A plain copy does and a constant is one value. A value map
// does when no two codes stand for one value, as ToRemote takes it:
// an unmapped remote value spelled as a mapped one ({"N": "north"} and a
// remote "north") is taken not to occur. An affine conversion rounds and
// a coercion identifies ('042' and '42' are one INT), so neither does.
func (m *ColumnMapping) Injective() bool {
	return m.Identity() || m.Const != nil || m.inverse != nil
}

// hasAffine reports whether an affine conversion applies.
func (m *ColumnMapping) hasAffine() bool { return m.Scale != 0 }

// ToGlobal converts a remote value to the global representation.
func (m *ColumnMapping) ToGlobal(v types.Value) (types.Value, error) {
	if m.Const != nil {
		return *m.Const, nil
	}
	if v.IsNull() {
		return v, nil
	}
	if m.hasAffine() {
		if !v.Kind().Numeric() {
			return types.Null, fmt.Errorf("affine mapping over non-numeric value %s", v.Kind())
		}
		return types.NewFloat(v.AsFloat()*m.Scale + m.Offset), nil
	}
	if m.ValueMap != nil {
		if v.Kind() != types.KindString {
			return types.Null, fmt.Errorf("value map over non-string value %s", v.Kind())
		}
		if g, ok := m.ValueMap[v.Str()]; ok {
			return types.NewString(g), nil
		}
		return v, nil
	}
	return v, nil
}

// ToRemote converts a global value to the remote representation, in the
// remote column's kind — the one inverse of ToGlobal, read by pushdown,
// key shipping and writes. ok is false when there is none to be had. On
// a column where InvertsExactly holds, false means that no remote value
// reads as v; elsewhere it means only that this one is not found (an
// affine column's inverse is the nearest, rounded).
func (m *ColumnMapping) ToRemote(v types.Value) (types.Value, bool) {
	if m.Const != nil {
		return types.Null, false
	}
	switch {
	case v.IsNull():
		return v, true
	case m.hasAffine():
		if !v.Kind().Numeric() {
			return types.Null, false
		}
		v = types.NewFloat((v.AsFloat() - m.Offset) / m.Scale)
	case m.ValueMap != nil:
		if m.inverse == nil || v.Kind() != types.KindString {
			return types.Null, false
		}
		if r, ok := m.inverse[v.Str()]; ok {
			v = types.NewString(r)
		} else if _, isRemoteCode := m.ValueMap[v.Str()]; isRemoteCode {
			// Not a mapped value, and the remote value spelled alike
			// reads as another; values outside the map pass through.
			return types.Null, false
		}
	}
	rv, err := v.Coerce(m.remoteKind)
	return rv, err == nil
}

// Fragment maps one remote table onto a global table.
type Fragment struct {
	// Source is the component system's registered name.
	Source string
	// RemoteTable is the table name at the source.
	RemoteTable string
	// Columns has one mapping per global column.
	Columns []ColumnMapping
	// Where optionally describes which global rows live in this
	// fragment (bound over the global schema); Split and Holds read it.
	Where expr.Expr

	// info caches the remote table description.
	info *source.TableInfo
	// remote holds, at each identity-mapped global column's position,
	// the reference to its remote column that a translated filter reads
	// (RemoteRef); built by MapFragment and never written.
	remote []expr.ColRef
	// class is shared by the fragments of a table that map alike
	// (MapsLike); 0 for a fragment no catalog has mapped.
	class int
	// stats caches per-fragment optimizer statistics, in remote-column
	// space: ANALYZE installs them while planners read them.
	stats atomic.Pointer[stats.TableStats]
}

// Info returns the cached remote table description.
func (f *Fragment) Info() *source.TableInfo { return f.info }

// RemoteRef is the reference to the remote column behind global column
// g, as a filter translated into the fragment's schema reads it, where g
// is identity-mapped; nil where it is not. Every filter translated over
// the fragment shares it, so it is only to be read.
func (f *Fragment) RemoteRef(g int) *expr.ColRef {
	if g < 0 || g >= len(f.remote) || !f.Columns[g].Identity() {
		return nil
	}
	return &f.remote[g]
}

// MapsLike reports whether g maps its remote table onto the global table
// as f does: the same column mappings (remote column, conversion,
// constant, value map) over remote tables of one schema and key columns.
// A filter then splits alike over both but for their partition
// predicates (Excludes), and a row of either translates alike; their
// sources, tables' names, partition predicates and statistics may differ.
// It is decided once, when the fragments are mapped.
func (f *Fragment) MapsLike(g *Fragment) bool { return f.class != 0 && f.class == g.class }

// mapsAlike is MapsLike worked out, for a fragment being mapped onto
// the table g is mapped onto.
func (f *Fragment) mapsAlike(g *Fragment) bool {
	return slices.EqualFunc(f.Columns, g.Columns, func(a, b ColumnMapping) bool {
		return a.RemoteCol == b.RemoteCol && a.Scale == b.Scale && a.Offset == b.Offset && maps.Equal(a.ValueMap, b.ValueMap) &&
			(a.Const == nil) == (b.Const == nil) && (a.Const == nil || types.Identical(*a.Const, *b.Const))
	}) && slices.Equal(f.info.Schema.Columns, g.info.Schema.Columns) && slices.Equal(f.info.KeyColumns, g.info.KeyColumns)
}

// Stats returns the fragment's statistics (nil until analyzed). They
// are only to be read: fragments of one remote table share them.
func (f *Fragment) Stats() *stats.TableStats { return f.stats.Load() }

// SetStats installs fragment statistics (ANALYZE).
func (f *Fragment) SetStats(ts *stats.TableStats) { f.stats.Store(ts) }

// GlobalTable is one table of the global schema.
type GlobalTable struct {
	Name   string
	Schema *types.Schema
	// Own is Schema with every column qualified by the table's name: the
	// shape of a scan of every column under the table's own name, which
	// each such scan shares. Like Schema it is built by DefineTable and
	// never written; a holder that renames a column copies it first.
	Own       *types.Schema
	Fragments []*Fragment
}

// Catalog is the mediator's registry of sources and global tables.
// Methods are safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]source.Source
	tables  map[string]*GlobalTable
	views   map[string]string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		sources: make(map[string]source.Source),
		tables:  make(map[string]*GlobalTable),
	}
}

// AddSource registers a component system under its Name(). A source
// that should be retried and breaker-gated is registered wrapped
// (resilience.WrapSource).
func (c *Catalog) AddSource(src source.Source) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := src.Name()
	if name == "" {
		return fmt.Errorf("catalog: source has empty name")
	}
	if _, dup := c.sources[name]; dup {
		return fmt.Errorf("catalog: source %q already registered", name)
	}
	c.sources[name] = src
	return nil
}

// Source resolves a registered source.
func (c *Catalog) Source(name string) (source.Source, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	src, ok := c.sources[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown source %q", name)
	}
	return src, nil
}

// Sources lists registered source names.
func (c *Catalog) Sources() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.sources))
	for n := range c.sources {
		out = append(out, n)
	}
	return out
}

// DefineTable creates an empty global table.
func (c *Catalog) DefineTable(name string, schema *types.Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("catalog: global table %q already defined", name)
	}
	if _, dup := c.views[name]; dup {
		return fmt.Errorf("catalog: %q is already a view", name)
	}
	if schema.Len() == 0 {
		return fmt.Errorf("catalog: global table %q needs columns", name)
	}
	sc, own := schema.Clone(), schema.Clone()
	for i := range sc.Columns {
		sc.Columns[i].Table, own.Columns[i].Table = "", name
	}
	c.tables[name] = &GlobalTable{Name: name, Schema: sc, Own: own}
	return nil
}

// Table resolves a global table.
func (c *Catalog) Table(name string) (*GlobalTable, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown global table %q", name)
	}
	return t, nil
}

// Tables lists global table names.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}

// MapFragment validates and attaches a fragment to a global table,
// fetching and caching the remote table description. info is fetched
// from the live source, so the source must be registered first. A
// dialed source has it from the dial's describe — the hello reply
// described the served tables, and the first ask for each is answered
// from that — or else from one round trip governed by ctx; the fetch
// runs outside the catalog lock so a slow or dead source cannot stall
// concurrent catalog lookups. The fragment takes its partition
// predicate f.Where: the tree is bound against the global table's
// schema in place, so one tree may serve fragments of one table but not
// of two.
func (c *Catalog) MapFragment(ctx context.Context, table string, f *Fragment) error {
	c.mu.RLock()
	t, tableOK := c.tables[table]
	src, sourceOK := c.sources[f.Source]
	c.mu.RUnlock()
	if !tableOK {
		return fmt.Errorf("catalog: unknown global table %q", table)
	}
	if !sourceOK {
		return fmt.Errorf("catalog: fragment references unknown source %q", f.Source)
	}
	info, err := src.TableInfo(ctx, f.RemoteTable)
	if err != nil {
		return fmt.Errorf("catalog: fragment %s.%s: %w", f.Source, f.RemoteTable, err)
	}
	// t.Schema is immutable once DefineTable returns, so validation needs
	// no lock; only the final fragment append mutates shared state.
	if len(f.Columns) != t.Schema.Len() {
		return fmt.Errorf("catalog: fragment %s.%s maps %d columns, global table %q has %d",
			f.Source, f.RemoteTable, len(f.Columns), table, t.Schema.Len())
	}
	for i := range f.Columns {
		m := &f.Columns[i]
		gcol := t.Schema.Columns[i]
		switch {
		case m.Const != nil:
			if m.RemoteCol >= 0 {
				return fmt.Errorf("catalog: column %q maps both a remote column and a constant", gcol.Name)
			}
			if !m.Const.IsNull() && m.Const.Kind() != gcol.Type {
				cv, err := m.Const.Coerce(gcol.Type)
				if err != nil {
					return fmt.Errorf("catalog: column %q constant: %w", gcol.Name, err)
				}
				*m.Const = cv
			}
		case m.RemoteCol < 0 || m.RemoteCol >= info.Schema.Len():
			return fmt.Errorf("catalog: column %q maps remote column %d, table %s.%s has %d",
				gcol.Name, m.RemoteCol, f.Source, f.RemoteTable, info.Schema.Len())
		case m.hasAffine():
			rcol := info.Schema.Columns[m.RemoteCol]
			if !rcol.Type.Numeric() || !gcol.Type.Numeric() {
				return fmt.Errorf("catalog: column %q affine mapping needs numeric types (remote %s, global %s)",
					gcol.Name, rcol.Type, gcol.Type)
			}
		case m.ValueMap != nil:
			rcol := info.Schema.Columns[m.RemoteCol]
			if rcol.Type != types.KindString || gcol.Type != types.KindString {
				return fmt.Errorf("catalog: column %q value map needs string types", gcol.Name)
			}
		}
		if m.RemoteCol >= 0 {
			m.remoteKind, m.globalKind = info.Schema.Columns[m.RemoteCol].Type, gcol.Type
		}
		// Build the inverse value map when bijective.
		if m.ValueMap != nil {
			inv := make(map[string]string, len(m.ValueMap))
			bijective := true
			for k, v := range m.ValueMap {
				if _, dup := inv[v]; dup {
					bijective = false
					break
				}
				inv[v] = k
			}
			if bijective {
				m.inverse = inv
			}
		}
	}
	if f.Where != nil {
		if _, err := expr.Bind(f.Where, t.Schema); err != nil {
			return fmt.Errorf("catalog: fragment partition predicate: %w", err)
		}
	}
	f.info = info
	f.remote = make([]expr.ColRef, len(f.Columns))
	for g := range f.Columns {
		if m := &f.Columns[g]; m.Identity() {
			rcol := info.Schema.Columns[m.RemoteCol]
			f.remote[g] = expr.ColRef{Name: rcol.Name, Index: m.RemoteCol, Type: rcol.Type}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f.class = len(t.Fragments) + 1
	for _, g := range t.Fragments {
		if f.mapsAlike(g) {
			f.class = g.class
			break
		}
	}
	t.Fragments = append(t.Fragments, f)
	return nil
}

// MapSimple is a convenience for the common case: the remote table's
// first N columns map 1:1 onto the global schema.
func (c *Catalog) MapSimple(ctx context.Context, table, sourceName, remoteTable string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	cols := make([]ColumnMapping, t.Schema.Len())
	for i := range cols {
		cols[i] = ColumnMapping{RemoteCol: i}
	}
	return c.MapFragment(ctx, table, &Fragment{Source: sourceName, RemoteTable: remoteTable, Columns: cols})
}

// InvertsExactly reports whether a global value translates back to the
// very remote value it came from — what an equality on shipped join keys
// needs. An affine conversion inverts only up to floating-point
// rounding, and a coercion need not invert at all ('042' and '42' are
// one INT).
func (m *ColumnMapping) InvertsExactly() bool {
	return m.Const == nil && (m.ValueMap == nil || m.inverse != nil) && !m.hasAffine() && !m.Retyped()
}

// DefineView registers a named global view: a SELECT statement expanded
// wherever the view's name appears in a FROM clause. The text is parsed
// and validated lazily by the planner (keeping this package independent
// of the SQL front end); expression subqueries are not allowed inside
// views.
func (c *Catalog) DefineView(name, selectSQL string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("catalog: %q is already a global table", name)
	}
	if _, dup := c.views[name]; dup {
		return fmt.Errorf("catalog: view %q already defined", name)
	}
	if c.views == nil {
		c.views = make(map[string]string)
	}
	c.views[name] = selectSQL
	return nil
}

// View returns the SQL text of a view, if defined.
func (c *Catalog) View(name string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	return v, ok
}

// Views lists defined view names.
func (c *Catalog) Views() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for n := range c.views {
		out = append(out, n)
	}
	return out
}
