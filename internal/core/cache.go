package core

import (
	"sync"

	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/sql"
)

// The statement cache (DESIGN.md "The statement cache") keeps, by a
// SELECT's text, what planning it under one catalog generation and one
// set of options made: the plan, when what a parameter value could
// change in it is re-derived for each call's values (plan.ValueFree),
// and otherwise the verdict that it is planned on every call. A later
// call of the text with parameters that fit runs a copy of the plan with
// its values bound (plan.Rebind) instead of parsing and planning it
// again, unless its values would leave a scan other fragments: that call
// is planned afresh, and the kept plan stays.

// stmtCacheSize bounds how many texts the cache keeps; one more drops
// one it keeps.
const stmtCacheSize = 512

// stmtCache is the engine's statement cache.
type stmtCache struct {
	mu sync.Mutex
	m  map[string]*template
}

// template is one text's entry, made by planning it under gen and opts.
// plan is nil when the text is planned on every call; otherwise params
// says where its parameters stand in it. Once kept, it is only read.
type template struct {
	gen    uint64
	opts   plan.Options
	plan   plan.Node
	params plan.Params
	// slots holds params.Slots for a text of up to eight parameters.
	slots [8]*expr.Const
}

// get returns text's entry when it was made under gen and opts.
func (c *stmtCache) get(text string, gen uint64, opts *plan.Options) *template {
	c.mu.Lock()
	t := c.m[text]
	c.mu.Unlock()
	if t == nil || t.gen != gen || t.opts != *opts {
		return nil
	}
	return t
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
