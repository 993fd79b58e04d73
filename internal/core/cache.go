package core

import (
	"sync"

	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/sql"
	"gis/internal/types"
)

// The statement cache (DESIGN.md "The statement cache") keeps, by a
// SELECT's text, what planning it under one catalog generation and one
// set of options made: plans of it that another call's values may be
// written into (plan.ValueFree), each one read by one statement at a
// time, or otherwise the verdict that it is planned on every call. A
// later call of the text with parameters that fit checks out an idle
// plan that reads the fragments its values leave (plan.Params.LiveFor),
// writes its values into it (plan.Params.Bind) and hands it back when
// the statement is over; with none idle, the text is parsed and planned
// afresh, and that plan is kept beside the others.

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

// instance is one plan of a template's text, which one statement at a
// time holds and binds its values into. Its plan and params are written
// before it is first kept, and only its slots' values and its joins'
// strategies after (plan.Params.Bind).
type instance struct {
	t      *template
	plan   plan.Node
	params plan.Params
	// slots holds params.Slots for a text of up to eight parameters.
	slots [8]*expr.Const
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
	if t.first.plan == nil || !t.first.params.Fits(vals) {
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
	if in == nil || in.plan == nil || in.t.gen != gen {
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
