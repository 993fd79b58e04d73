package core

import (
	"slices"
	"sync"

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
// DELETE, the write buildWrite built (globalWrite). Each instance is read
// by one statement at a time; a text none is kept of has the verdict that
// it is planned on every call. A later call of the text with parameters
// that fit checks out an idle instance that reads the fragments its
// values leave (plan.Params.LiveFor), writes its values into it
// (plan.Params.Bind) and hands it back when the statement is over; with
// none idle, the text is parsed and planned afresh, and that instance is
// kept beside the others.

// stmtCacheSize bounds how many texts the cache keeps; one more drops
// one it keeps.
const stmtCacheSize = 512

// maxIdle bounds how many idle instances the cache keeps of one text. A
// range over eight fragments may read any of 36 sets of them, so a list
// that is full drops the instance handed back longest ago: the sets a
// text's calls read of late stay kept.
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
// and idle[:nIdle] are the plans of the text no statement runs, in the
// order they were handed back.
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
	write  globalWrite
	params plan.Params
	// slots holds params.Slots for a text of up to eight parameters.
	slots [8]*expr.Const
}

// kept reports whether in holds a plan or a write a later call may bind.
func (in *instance) kept() bool { return in.plan != nil || in.write.scan.Table != nil }

// checkout returns text's entry when it was made under gen and opts,
// and, when vals fit its plans, an idle one of them that reads the
// fragments vals leave, taken out of the idle list, which stays in
// hand-back order. fits reports that vals fit.
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
			copy(t.idle[i:], t.idle[i+1:t.nIdle])
			t.nIdle--
			t.idle[t.nIdle] = nil
			return t, idle, true
		}
	}
	return t, nil, true
}

// checkin hands in back to the end of its template's idle list, once no
// statement reads it, unless the catalog has moved past the generation
// the plan was made under. A full list drops its first instance, the one
// handed back longest ago.
func (c *stmtCache) checkin(in *instance, gen uint64) {
	if in == nil || !in.kept() || in.t.gen != gen {
		return
	}
	c.mu.Lock()
	t := in.t
	if t.nIdle == maxIdle {
		t.nIdle--
		copy(t.idle[:], t.idle[1:])
	}
	t.idle[t.nIdle] = in
	t.nIdle++
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

// keep keeps w, the write a miss built, in in, whose slots the
// statement's parameters were read into, when a later call whose values
// leave the same fragments, written into the slots, writes what building
// it again would. So it moves no row, and each parameter stands, by
// pointer, in an INSERT's rows, or in the WHERE or a SET value and in the
// same place of every fragment write: not where a value map or a
// conversion translated it, or folding made a constant of it, into a
// constant of its own (catalog.Fragment.Split, TranslateValue,
// expr.FoldConstants). And the fragments written are those the WHERE's
// partition ranges leave (plan.Params.Live), and not fewer: a
// constant-mapped column or a value map may prune a fragment by a value,
// which LiveFor does not re-derive. An INSERT routes its rows on every
// call, so it writes no fragment yet and its Live is empty. Refused, in
// keeps no write.
func (in *instance) keep(w *globalWrite) {
	in.write = *w
	scan := &in.write.scan
	if w.op == opInsert {
		scan = nil
	}
	if w.moves || !in.params.Unplanned(scan) || !in.bindsAlike(w) {
		in.write = globalWrite{}
	}
}

// bindsAlike is keep's check of where w's parameters stand, and of the
// fragments it writes.
func (in *instance) bindsAlike(w *globalWrite) bool {
	var written uint64
	for _, fw := range w.writes {
		written |= 1 << slices.Index(w.scan.Table.Fragments, fw.frag)
	}
	if written != in.params.Live[0] {
		return false
	}
	for _, s := range in.params.Slots {
		inFilter, inSet := stands(w.scan.Filter, s), slices.ContainsFunc(w.sets, func(sc source.SetClause) bool { return stands(sc.Value, s) })
		if !inFilter && !inSet {
			return false
		}
		for _, fw := range w.writes {
			if stands(fw.filter, s) != inFilter {
				return false
			}
			for i, sc := range fw.set {
				if stands(sc.Value, s) != stands(w.sets[i].Value, s) {
					return false
				}
			}
		}
	}
	return true
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
