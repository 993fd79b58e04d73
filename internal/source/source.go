// Package source defines the component-system wrapper framework: the
// Source interface every store adapter implements, the sub-query IR the
// mediator ships to sources, and the per-source capability descriptions
// the planner reads to decide what a source is asked and what the
// mediator does itself ("compensation").
//
// This is the paper's wrapper layer: each autonomous component
// information system is adapted to the common model by a Source, and
// advertises what it can compute so the mediator can decompose global
// queries correctly.
package source

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"gis/internal/expr"
	"gis/internal/stats"
	"gis/internal/types"
)

// FilterCap grades a source's predicate pushdown ability.
type FilterCap uint8

// Filter capability levels.
const (
	// FilterNone: the source can only scan whole tables.
	FilterNone FilterCap = iota
	// FilterKey: the source supports equality and range predicates on
	// its key columns only (a keyed record store).
	FilterKey
	// FilterFull: the source evaluates arbitrary row predicates.
	FilterFull
)

func (f FilterCap) String() string {
	switch f {
	case FilterNone:
		return "none"
	case FilterKey:
		return "key"
	case FilterFull:
		return "full"
	default:
		return fmt.Sprintf("FilterCap(%d)", uint8(f))
	}
}

// Capabilities describes what query fragments a source can execute
// itself. The mediator compensates for everything a source cannot do.
type Capabilities struct {
	Filter    FilterCap
	Project   bool
	Aggregate bool
	Sort      bool
	Limit     bool
	// Write enables INSERT/UPDATE/DELETE through the wrapper.
	Write bool
	// Txn enables two-phase commit participation.
	Txn bool
}

// String renders the capability vector compactly for EXPLAIN output.
func (c Capabilities) String() string {
	s := "filter=" + c.Filter.String()
	for _, f := range []struct {
		on   bool
		name string
	}{
		{c.Project, "project"}, {c.Aggregate, "aggregate"},
		{c.Sort, "sort"}, {c.Limit, "limit"}, {c.Write, "write"}, {c.Txn, "txn"},
	} {
		if f.on {
			s += "+" + f.name
		}
	}
	return s
}

// TableInfo describes one table as exposed by a source. Schema and
// KeyColumns are read-only: a table's shape is fixed when it is
// registered, so a store hands out its own, uncloned, on every call (a
// wire server asks once per shipped filter), and whoever needs a variant
// copies first (Schema.Clone).
type TableInfo struct {
	Schema *types.Schema
	// KeyColumns are the positions usable for keyed access when the
	// source's filter capability is FilterKey.
	KeyColumns []int
	// RowCount is the source's row-count estimate, -1 when unknown.
	RowCount int64
}

// AggSpec is one aggregate in a pushed-down query.
type AggSpec struct {
	Kind expr.AggKind
	// Col is the input column position; -1 with Star for COUNT(*).
	Col      int
	Star     bool
	Distinct bool
}

func (a AggSpec) String() string {
	b := append(make([]byte, 0, 24), a.Kind.String()...)
	b = append(b, '(')
	if a.Distinct {
		b = append(b, "DISTINCT "...)
	}
	if a.Star {
		b = append(b, '*')
	} else {
		b = strconv.AppendInt(append(b, '$'), int64(a.Col), 10)
	}
	return string(append(b, ')'))
}

// OrderSpec is one sort key over a query's output columns.
type OrderSpec struct {
	Col  int
	Desc bool
}

// Query is the sub-query IR shipped to a source. Semantically it is
//
//	SELECT <Columns | GroupBy+Aggs> FROM Table
//	WHERE Filter GROUP BY GroupBy ORDER BY OrderBy LIMIT Limit
//
// Filter is bound against the table's schema (column references are
// positions in TableInfo.Schema). When HasAggregation the output schema is
// the GroupBy columns followed by the aggregate results; otherwise it is
// the projected Columns (nil Columns means all, in table order).
// OrderSpec columns index the *output* schema.
type Query struct {
	Table   string
	Columns []int
	Filter  expr.Expr
	GroupBy []int
	Aggs    []AggSpec
	OrderBy []OrderSpec
	Limit   int64 // -1: no limit
}

// NewScan returns the trivial full-scan query for a table.
func NewScan(table string) *Query { return &Query{Table: table, Limit: -1} }

// HasAggregation reports whether the query groups/aggregates: GROUP BY
// with no aggregate (one row per distinct key) counts.
func (q *Query) HasAggregation() bool { return len(q.Aggs) > 0 || len(q.GroupBy) > 0 }

// Check reports what makes q unanswerable by a source of capabilities
// caps over the table info describes: a shape the source does not offer
// (projection, aggregation, any filter at all, sort, limit), a column
// position outside the table — or, for OrderBy, outside the output — an
// aggregate kind that does not exist, a limit below -1. A query that
// passes indexes nothing out of range when it runs. The planner builds
// only queries that pass; a query decoded off the wire, or handed to a
// store by anyone else, is whatever its sender made it, so the wire
// server and every store ask before they execute. Whether a FilterKey
// source can evaluate the particular filter is the store's own check.
// A query that passes costs no allocation.
func (q *Query) Check(caps Capabilities, info *TableInfo) error {
	width := info.Schema.Len()
	out := width // of the output, which OrderBy addresses
	inTable := func(what string, col int) error {
		if col < 0 || col >= width {
			return fmt.Errorf("%s column %d out of range of %s's %d columns", what, col, q.Table, width)
		}
		return nil
	}
	switch {
	case q.HasAggregation():
		if !caps.Aggregate {
			return q.exceeds(caps)
		}
		for _, g := range q.GroupBy {
			if err := inTable("group-by", g); err != nil {
				return err
			}
		}
		for _, a := range q.Aggs {
			if a.Kind > expr.AggAvg {
				return fmt.Errorf("unknown aggregate kind %d", a.Kind)
			}
			if !a.Star {
				if err := inTable("aggregate", a.Col); err != nil {
					return err
				}
			}
		}
		out = len(q.GroupBy) + len(q.Aggs)
	case q.Columns != nil:
		if !caps.Project {
			return q.exceeds(caps)
		}
		for _, c := range q.Columns {
			if err := inTable("projected", c); err != nil {
				return err
			}
		}
		out = len(q.Columns)
	}
	switch {
	case q.Filter != nil && caps.Filter == FilterNone,
		len(q.OrderBy) > 0 && !caps.Sort,
		q.Limit >= 0 && !caps.Limit:
		return q.exceeds(caps)
	}
	for _, o := range q.OrderBy {
		if o.Col < 0 || o.Col >= out {
			return fmt.Errorf("order-by column %d out of range of the %d output columns", o.Col, out)
		}
	}
	if q.Limit < -1 {
		return fmt.Errorf("limit %d", q.Limit)
	}
	return nil
}

func (q *Query) exceeds(caps Capabilities) error {
	return fmt.Errorf("query shape exceeds capabilities (%s): %s", caps, q)
}

// String renders the query IR for EXPLAIN output.
func (q *Query) String() string {
	s := "scan " + q.Table
	if q.Filter != nil {
		s += fmt.Sprintf(" where %s", q.Filter)
	}
	if q.HasAggregation() {
		s += fmt.Sprintf(" group%v aggs%v", q.GroupBy, q.Aggs)
	} else if q.Columns != nil {
		s += fmt.Sprintf(" cols%v", q.Columns)
	}
	if len(q.OrderBy) > 0 {
		s += fmt.Sprintf(" order%v", q.OrderBy)
	}
	if q.Limit >= 0 {
		s += fmt.Sprintf(" limit %d", q.Limit)
	}
	return s
}

// RowIter streams query results. Next returns io.EOF after the last row.
// Close releases resources and is safe to call more than once.
//
// A row is the consumer's to keep: it stays valid, and is never written
// again, for as long as the consumer holds it. The one exception is an
// iterator the consumer has told Lent (Use): its rows are valid only
// until the next Next or Close. Rows are read-only either way.
type RowIter interface {
	Next() (types.Row, error)
	Close() error
}

// Lent is the hint (Use) of a consumer that is done with each row — has
// folded, copied or encoded it — before it asks for the next.
const Lent = -1

// Hinted is implemented by a RowIter that allocates the rows it hands
// out and can allocate them better when told how they are used. Use,
// called at most once and before the first Next, says it: n is Lent, or
// n > 0 says the consumer keeps every row and expects about n of them —
// the plan's estimate — so a builder carves them from one block
// (types.RowSlab.Use). A consumer that keeps rows and knows no count (a
// merge, Drain) says nothing. An iterator that only passes rows on
// forwards the hint to its input; one that builds its rows from its
// input's keeps the hint for itself, and tells its input Lent.
type Hinted interface {
	Use(n int)
}

// Use tells it how its rows are used (Hinted), if it can use that; 0
// says nothing and reaches nothing. An iterator that takes no hint —
// one that hands out rows it did not allocate, or a wrapper that does
// not forward it — hands out rows that stay valid, which costs
// allocations and is never wrong; one told too many leaves part of its
// block unused (at most types.MaxReserveBytes). Values copied out of a
// lent row stay valid: they own what they point to.
func Use(it RowIter, n int) {
	if h, ok := it.(Hinted); ok && n != 0 {
		h.Use(n)
	}
}

// Source adapts one component information system to the common model.
// Implementations must be safe for concurrent use.
type Source interface {
	// Name identifies the source in the catalog and in EXPLAIN output.
	Name() string
	// Tables lists the tables the source exposes, sorted by name, so
	// that whatever reads a prefix of the list (a dial's hello reply)
	// reads the same one every time.
	Tables(ctx context.Context) ([]string, error)
	// TableInfo describes one table.
	TableInfo(ctx context.Context, table string) (*TableInfo, error)
	// Capabilities reports what the source can push down.
	Capabilities() Capabilities
	// Execute runs a sub-query. The query must respect the source's
	// capabilities (the mediator's planner guarantees this).
	Execute(ctx context.Context, q *Query) (RowIter, error)
}

// SetClause assigns Value (bound over the table schema) to column Col.
type SetClause struct {
	Col   int
	Value expr.Expr
}

// CheckWrite is Query.Check's sibling for the write path: it reports
// what makes an UPDATE's SET list or an INSERT's rows unappliable to the
// table (named for the message) info describes — a SET position outside
// it or without a value, a row of another width. A write decoded off the wire is
// whatever its sender made it, so the wire server and every writing
// store ask before they index a row by a SET position. A DELETE has
// nothing to check; the expressions are bounded by expr.BindPositions.
func (info *TableInfo) CheckWrite(table string, set []SetClause, rows []types.Row) error {
	width := info.Schema.Len()
	for _, sc := range set {
		if sc.Col < 0 || sc.Col >= width {
			return fmt.Errorf("SET column %d out of range of %s's %d columns", sc.Col, table, width)
		}
		if sc.Value == nil {
			return fmt.Errorf("SET column %d of %s has no value", sc.Col, table)
		}
	}
	for _, r := range rows {
		if len(r) != width {
			return fmt.Errorf("row has %d values, %s has %d columns", len(r), table, width)
		}
	}
	return nil
}

// NormalizeRow returns r — as wide as schema, which CheckWrite has
// established — as the store keeps it: a copy the caller has no hold
// on, each value coerced to its column's type (types.Value.Coerce: NULL,
// and a value of that type already, pass as they are).
func NormalizeRow(schema *types.Schema, r types.Row) (types.Row, error) {
	out := make(types.Row, len(r))
	for i, v := range r {
		cv, err := v.Coerce(schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", schema.Columns[i].Name, err)
		}
		out[i] = cv
	}
	return out, nil
}

// SetRow is the one rule that makes a written row, the mediator's and
// every store's: a new row as wide as schema holding base's values (NULLs
// where base is nil) except, at each clause's column (within schema:
// CheckWrite), the clause's value over base coerced to the column's type.
func SetRow(schema *types.Schema, base types.Row, set []SetClause) (types.Row, error) {
	out := make(types.Row, schema.Len())
	copy(out, base)
	for _, sc := range set {
		col := schema.Columns[sc.Col]
		v, err := sc.Value.Eval(base)
		if err == nil {
			v, err = v.Coerce(col.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", col.Name, err)
		}
		out[sc.Col] = v
	}
	return out, nil
}

// Writer is implemented by sources that accept updates.
type Writer interface {
	Insert(ctx context.Context, table string, rows []types.Row) (int64, error)
	Update(ctx context.Context, table string, filter expr.Expr, set []SetClause) (int64, error)
	Delete(ctx context.Context, table string, filter expr.Expr) (int64, error)
}

// Tx is a transaction on one participant, driven through two-phase
// commit by the mediator's coordinator.
type Tx interface {
	Writer
	// Prepare votes on commit: after a successful Prepare the
	// participant guarantees Commit will succeed.
	Prepare(ctx context.Context) error
	// Commit makes the transaction's writes durable and visible.
	Commit(ctx context.Context) error
	// Abort rolls the transaction back. Abort after Prepare is allowed
	// (coordinator decided abort).
	Abort(ctx context.Context) error
}

// Transactional is implemented by sources that support transactions.
type Transactional interface {
	BeginTx(ctx context.Context) (Tx, error)
}

// StatsProvider is implemented by sources that can report optimizer
// statistics (relstore, kvstore, and what passes a source's on: the
// wire, the resilience guard). Anyone else's are collected by a scan
// (CollectStats).
type StatsProvider interface {
	Stats(table string) (*stats.TableStats, error)
}

// CollectStats returns the statistics of one of src's tables, width
// columns wide: the source's own when it is a StatsProvider that
// answers, else collected from a scan of the whole table.
func CollectStats(ctx context.Context, src Source, table string, width int) (*stats.TableStats, error) {
	if sp, ok := src.(StatsProvider); ok {
		if ts, err := sp.Stats(table); err == nil {
			return ts, nil
		}
	}
	it, err := src.Execute(ctx, NewScan(table))
	if err != nil {
		return nil, err
	}
	rows, err := Drain(it)
	if err != nil {
		return nil, err
	}
	return stats.Collect(rows, width), nil
}

// ---- iterator helpers ----

// SliceIter returns a RowIter over an in-memory slice. The slice is not
// copied; callers must not mutate it while iterating.
func SliceIter(rows []types.Row) RowIter { return &sliceIter{rows: rows} }

// HeldIter is SliceIter over rows a holder keeps for the iterator:
// release, which lets them go, runs at the first Close.
func HeldIter(rows []types.Row, release func()) RowIter {
	return &sliceIter{rows: rows, release: release}
}

type sliceIter struct {
	rows    []types.Row // the ones not yet returned
	release func()
}

func (s *sliceIter) Next() (types.Row, error) {
	if len(s.rows) == 0 {
		return nil, io.EOF
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, nil
}

func (s *sliceIter) Close() error {
	if s.release != nil {
		s.release()
		s.release = nil
	}
	return nil
}

// drainChunk is the size past which Drain stops growing its result by
// append: a doubling copies every header about twice over and leaves
// the copies as garbage, which for a shipped range is more than the
// result itself.
const drainChunk = 1024

// Drain reads every row from an iterator and closes it. It keeps the
// rows, so it never asks the iterator to lend. A result of up to
// drainChunk rows is built by append; a longer one sets each full chunk
// aside and is gathered once, at its exact size, when the stream ends.
func Drain(it RowIter) ([]types.Row, error) { return DrainEach(it, 0, nil) }

// DrainEach is Drain that starts with room for hint rows, and hands each
// row to keep, when keep is not nil, before it keeps the row; an error
// from keep ends the drain with the rows kept so far. A result that fits
// the hint is that one slice. One that outgrows it goes on as Drain
// does: the full slice is set aside as a chunk, the next chunk is
// drainChunk rows, and the chunks are gathered when the stream ends.
func DrainEach(it RowIter, hint int, keep func(types.Row) error) ([]types.Row, error) {
	defer it.Close()
	var out []types.Row
	if hint > 0 {
		out = make([]types.Row, 0, hint)
	}
	var full [][]types.Row
	for {
		r, err := it.Next()
		if err == nil && keep != nil {
			err = keep(r)
		}
		if err == nil {
			if len(out) == cap(out) && len(out) >= drainChunk {
				full = append(full, out)
				out = make([]types.Row, 0, drainChunk)
			}
			out = append(out, r)
			continue
		}
		if full != nil {
			n := len(out)
			for _, c := range full {
				n += len(c)
			}
			all := make([]types.Row, 0, n)
			for _, c := range full {
				all = append(all, c...)
			}
			out = append(all, out...)
		}
		if err == io.EOF {
			err = nil
		}
		return out, err
	}
}
