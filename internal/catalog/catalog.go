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
	"sync"
	"sync/atomic"

	"gis/internal/expr"
	"gis/internal/resilience"
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
	return m.RemoteCol >= 0 && m.Scale == 0 && m.ValueMap == nil && m.Const == nil && !m.retyped()
}

// retyped reports whether the column's remote kind is not its global
// kind.
func (m *ColumnMapping) retyped() bool { return m.remoteKind != m.globalKind }

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

// ToRemote converts a global constant to the remote representation, for
// predicate pushdown. ok is false when the mapping is not invertible.
func (m *ColumnMapping) ToRemote(v types.Value) (types.Value, bool) {
	if m.Const != nil {
		return types.Null, false
	}
	if v.IsNull() {
		return v, true
	}
	if m.hasAffine() {
		if !v.Kind().Numeric() {
			return types.Null, false
		}
		return types.NewFloat((v.AsFloat() - m.Offset) / m.Scale), true
	}
	if m.ValueMap != nil {
		if m.inverse == nil || v.Kind() != types.KindString {
			return types.Null, false
		}
		if r, ok := m.inverse[v.Str()]; ok {
			return types.NewString(r), true
		}
		// Not a mapped code: passes through unchanged (values outside
		// the map are identical in both representations).
		if _, isRemoteCode := m.ValueMap[v.Str()]; isRemoteCode {
			// The global constant collides with a remote code; pushing
			// it down would match the wrong rows.
			return types.Null, false
		}
		return v, true
	}
	return v, true
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
	// fragment (bound over the global schema). The planner prunes
	// fragments whose predicate contradicts the query filter and
	// re-checks rows at the mediator when sources overlap.
	Where expr.Expr

	// info caches the remote table description.
	info *source.TableInfo
	// stats caches per-fragment optimizer statistics, in remote-column
	// space: ANALYZE installs them while planners read them.
	stats atomic.Pointer[stats.TableStats]
}

// Info returns the cached remote table description.
func (f *Fragment) Info() *source.TableInfo { return f.info }

// Stats returns the fragment's statistics (nil until analyzed). They
// are only to be read: fragments of one remote table share them.
func (f *Fragment) Stats() *stats.TableStats { return f.stats.Load() }

// SetStats installs fragment statistics (ANALYZE).
func (f *Fragment) SetStats(ts *stats.TableStats) { f.stats.Store(ts) }

// GlobalTable is one table of the global schema.
type GlobalTable struct {
	Name      string
	Schema    *types.Schema
	Fragments []*Fragment
}

// Stats merges the fragments' statistics; nil when none were analyzed.
// The result is only to be read: for a table of one analyzed fragment it
// is that fragment's own statistics, not a copy.
func (g *GlobalTable) Stats() *stats.TableStats {
	if len(g.Fragments) == 1 {
		if ts := g.Fragments[0].Stats(); ts != nil {
			return ts
		}
	}
	var parts []*stats.TableStats
	for _, f := range g.Fragments {
		if ts := f.Stats(); ts != nil {
			parts = append(parts, ts)
		} else if f.info != nil && f.info.RowCount >= 0 {
			parts = append(parts, stats.Unknown(g.Schema.Len(), f.info.RowCount))
		}
	}
	if len(parts) == 0 {
		return nil
	}
	return stats.Merge(parts...)
}

// Catalog is the mediator's registry of sources and global tables.
// Methods are safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]source.Source
	tables  map[string]*GlobalTable
	views   map[string]string

	// policy, when set, wraps newly added sources with the resilience
	// layer; health tracks per-source breaker state either way, so the
	// planner can always consult it.
	policy *resilience.Policy
	health *resilience.Tracker
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		sources: make(map[string]source.Source),
		tables:  make(map[string]*GlobalTable),
		health:  resilience.NewTracker(nil),
	}
}

// SetResilience installs the per-source call policy: sources registered
// afterwards are wrapped with resilience.WrapSource (breaker-gated,
// retried reads; writes and 2PC forwarded untouched). It must run
// before any source is added so no source escapes the policy.
func (c *Catalog) SetResilience(p *resilience.Policy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sources) > 0 {
		return fmt.Errorf("catalog: resilience policy must be set before sources are added")
	}
	c.policy = p
	c.health = resilience.NewTracker(p)
	return nil
}

// Health returns the per-source health tracker (never nil). The planner
// consults it to order fan-out healthy-first; the shell shows it in
// \sources.
func (c *Catalog) Health() *resilience.Tracker {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.health
}

// AddSource registers a component system under its Name(), wrapping it
// with the resilience policy when one is configured.
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
	if c.policy != nil {
		src = resilience.WrapSource(src, c.policy, c.health.For(name))
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
	sc := schema.Clone()
	for i := range sc.Columns {
		sc.Columns[i].Table = ""
	}
	c.tables[name] = &GlobalTable{Name: name, Schema: sc}
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
	c.mu.Lock()
	defer c.mu.Unlock()
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

// Invertible reports whether global constants can be translated back to
// the remote representation (required to push join keys down).
func (m *ColumnMapping) Invertible() bool {
	if m.Const != nil || m.RemoteCol < 0 {
		return false
	}
	if m.ValueMap != nil {
		return m.inverse != nil
	}
	return true
}

// InvertsExactly reports whether a global value translates back to the
// very remote value it came from — what an equality on shipped join keys
// needs. An affine conversion inverts only up to floating-point
// rounding, and a coercion need not invert at all ('042' and '42' are
// one INT).
func (m *ColumnMapping) InvertsExactly() bool {
	return m.Invertible() && !m.hasAffine() && !m.retyped()
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
