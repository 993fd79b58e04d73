package core

import (
	"slices"
	"sync"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/types"
)

// The statement cache (DESIGN.md "The statement cache") keeps, by a
// statement's text, what planning it under one catalog generation and one
// set of options made: of a SELECT, plans of it that another call's
// values may be written into (plan.ValueFree); of an INSERT, UPDATE or
// DELETE, its bound statement and fragment writes (keptWrite). Each
// instance is read by one statement at a time; a text none is kept of
// has the verdict that it is planned on every call. A later call of the
// text with parameters that fit checks out an idle instance that reads
// the fragments its values leave (plan.Params.LiveFor), writes its values
// into it (plan.Params.Bind) and hands it back when the statement is
// over; with none idle, the text is parsed and planned afresh, and that
// instance is kept beside the others.

// stmtCacheSize bounds how many texts the cache keeps; one more drops
// one it keeps.
const stmtCacheSize = 512

// maxIdle bounds how many idle plans the cache keeps of one text: a
// range over eight fragments leaves fifteen sets of them, each alone or
// two side by side. A plan handed back to a full list is dropped.
const maxIdle = 16

// stmtCache is the engine's statement cache.
type stmtCache struct {
	mu sync.Mutex
	m  map[string]*template
}

// template is one text's entry, made by planning it under gen and opts
// into first. When first has no plan, the text is planned on every call;
// otherwise a call's values are checked against first's parameters
// (Fits, LiveFor), which reads nothing a statement holding first writes,
// and idle[:nIdle] are the plans of the text no statement runs.
type template struct {
	gen   uint64
	opts  plan.Options
	idle  [maxIdle]*instance // guarded by stmtCache.mu, as nIdle is
	nIdle int
	first instance
}

// instance is one plan of a template's text, or one kept write of it,
// which one statement at a time holds and binds its values into. Its plan
// or write and its params are written before it is first kept, and only
// its slots' values and its joins' strategies after (plan.Params.Bind).
type instance struct {
	t      *template
	plan   plan.Node
	write  keptWrite
	params plan.Params
	// slots holds params.Slots for a text of up to eight parameters.
	slots [8]*expr.Const
}

// kept reports whether in holds a plan or a write a later call may bind.
func (in *instance) kept() bool { return in.plan != nil || in.write.tab != nil }

// keptWrite is what an instance keeps of a write text in place of a
// plan: the write's op and table; an INSERT's rows as insertSets bound
// them, width sets a row, which each call routes to the fragment that
// holds its row; or an UPDATE's or a DELETE's fragment writes in
// participant order, whose filters and SET values hold the slots
// themselves, and scan, the table and the bound WHERE params.LiveFor
// reads.
type keptWrite struct {
	op     writeOp
	tab    *catalog.GlobalTable
	rows   []source.SetClause
	width  int
	writes []fragWrite
	scan   plan.GlobalScan
}

// checkout returns text's entry when it was made under gen and opts,
// and, when vals fit its plans, an idle one of them that reads the
// fragments vals leave, taken out of the idle list. fits reports that
// vals fit.
func (c *stmtCache) checkout(text string, gen uint64, opts *plan.Options, vals []types.Value) (t *template, in *instance, fits bool) {
	c.mu.Lock()
	t = c.m[text]
	c.mu.Unlock()
	if t == nil || t.gen != gen || t.opts != *opts {
		return nil, nil, false
	}
	if !t.first.kept() || !t.first.params.Fits(vals) {
		return t, nil, false
	}
	live := t.first.params.LiveFor(vals)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, idle := range t.idle[:t.nIdle] {
		if idle.params.Live == live {
			t.nIdle--
			t.idle[i], t.idle[t.nIdle] = t.idle[t.nIdle], nil
			return t, idle, true
		}
	}
	return t, nil, true
}

// checkin hands in back to its template's idle list, once no statement
// reads it, unless the catalog has moved past the generation the plan
// was made under or the list is full.
func (c *stmtCache) checkin(in *instance, gen uint64) {
	if in == nil || !in.kept() || in.t.gen != gen {
		return
	}
	c.mu.Lock()
	if t := in.t; t.nIdle < maxIdle {
		t.idle[t.nIdle] = in
		t.nIdle++
	}
	c.mu.Unlock()
}

// put keeps t as text's entry.
func (c *stmtCache) put(text string, t *template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*template)
	}
	if _, ok := c.m[text]; !ok && len(c.m) >= stmtCacheSize {
		for old := range c.m {
			delete(c.m, old)
			break
		}
	}
	c.m[text] = t
}

// holdsSubquery reports whether any clause of stmt holds a subquery,
// whose rows the planner would see as constants.
func holdsSubquery(stmt sql.Statement) bool {
	found := false
	_ = sql.VisitExprs(stmt, func(slot *expr.Expr) error {
		found = found || expr.HasSubquery(*slot)
		return nil
	})
	return found
}

// keepInsert keeps an INSERT of tab in in, its rows bound into rows,
// width sets a row, when each of its parameters stands in one of them,
// by pointer: a later call's values, written into the slots, are
// evaluated, routed to the fragment that holds the row and converted to
// its layout, as they are on every call.
func (in *instance) keepInsert(tab *catalog.GlobalTable, rows []source.SetClause, width int) {
	for _, s := range in.params.Slots {
		if !slices.ContainsFunc(rows, func(sc source.SetClause) bool { return stands(sc.Value, s) }) {
			return
		}
	}
	if in.params.Unplanned(nil) {
		in.write = keptWrite{op: opInsert, tab: tab, rows: rows, width: width}
	}
}

// keepWrites keeps an UPDATE or a DELETE of tab in in, its WHERE and SET
// bound into filter and sets and split into writes, when a later call
// whose values leave the same fragments, written into the slots, writes
// what building it again would. So each parameter stands in filter or a
// SET value, and, by pointer, in the same place of every fragment write:
// not where a value map or a conversion translated it, or folding made a
// constant of it, into a constant of its own (catalog.Fragment.Split,
// TranslateValue, expr.FoldConstants). And the fragments written are
// those the filter's partition ranges leave (plan.Params.Live), and not
// fewer: a constant-mapped column or a value map may prune a fragment by
// a value, which LiveFor does not re-derive.
func (in *instance) keepWrites(tab *catalog.GlobalTable, op writeOp, filter expr.Expr, sets []source.SetClause, writes []fragWrite) {
	in.write.scan = plan.GlobalScan{Table: tab, Filter: filter}
	if !in.params.Unplanned(&in.write.scan) {
		return
	}
	var written uint64
	for _, fw := range writes {
		written |= 1 << slices.Index(tab.Fragments, fw.frag)
	}
	if written != in.params.Live[0] {
		return
	}
	for _, s := range in.params.Slots {
		inFilter, inSet := stands(filter, s), slices.ContainsFunc(sets, func(sc source.SetClause) bool { return stands(sc.Value, s) })
		if !inFilter && !inSet {
			return
		}
		for _, fw := range writes {
			if stands(fw.filter, s) != inFilter {
				return
			}
			for i, sc := range fw.set {
				if stands(sc.Value, s) != stands(sets[i].Value, s) {
					return
				}
			}
		}
	}
	byParticipant(writes)
	in.write.op, in.write.tab, in.write.writes = op, tab, writes
}

// stands reports whether c is a node of e.
func stands(e expr.Expr, c *expr.Const) bool {
	found := false
	expr.Walk(e, func(n expr.Expr) bool {
		found = found || n == expr.Expr(c)
		return !found
	})
	return found
}
