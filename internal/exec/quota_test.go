package exec

import (
	"errors"
	"io"
	"testing"

	"gis/internal/admission"
	"gis/internal/plan"
)

// TestHoldersGiveBackWhatTheyCharged: under a memory quota every holder
// — a join's kept sides, hash or nested loops, local or key-shipped, a
// full sort, a top-k heap, a group table — has charged the statement
// while its output is open, and has given all of it back once the output
// is closed. A quota's worth of Grow tells the two apart: refused while
// something is held, granted when the account is empty. (A holder under
// a union is left out: the merge's fetcher may have closed it, or not
// yet opened it, when the first row arrives.)
func TestHoldersGiveBackWhatTheyCharged(t *testing.T) {
	f := newOwnFed(t)
	const quota = 1 << 30
	ctrl := admission.New(admission.Config{MemQuota: quota})
	shipAll := func(o *plan.Options) { o.ForceStrategy = plan.StrategyShipAll }
	semi := func(o *plan.Options) { o.ForceStrategy = plan.StrategySemiJoin }
	noPush := func(o *plan.Options) { o.PushAggregates, o.PushTopK = false, false }
	for _, c := range []struct {
		name, sql string
		tweak     func(*plan.Options)
	}{
		{"hash join", "SELECT c.name, o.oid FROM customers c JOIN orders_file o ON c.id = o.cust_id", shipAll},
		{"nested loops", "SELECT c.id, o.oid FROM customers c JOIN orders_file o ON c.id > o.oid + 50", nil},
		{"key-shipped join over a union", "SELECT c.name, e.oid FROM customers c JOIN events e ON c.id = e.cust_id WHERE c.id < 9", semi},
		{"full sort", "SELECT oid, amount FROM orders_file ORDER BY amount DESC, oid", nil},
		{"top-k", "SELECT oid, amount, region FROM orders_file ORDER BY region, amount DESC, oid LIMIT 40 OFFSET 5", nil},
		{"group table", "SELECT region, cust_id, COUNT(*) FROM orders_file GROUP BY region, cust_id", nil},
		{"group table over a parallel union", "SELECT rg, SUM(cents) FROM events GROUP BY rg", noPush},
	} {
		sctx, sess, err := ctrl.Admit(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		it, err := Run(sctx, f.plan(t, c.sql, c.tweak))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := sess.Grow(quota); !errors.Is(err, admission.ErrOverload) {
			t.Errorf("%s: a quota's worth granted with the output open (%v): nothing was charged", c.name, err)
			sess.Shrink(quota)
		}
		for err == nil {
			_, err = it.Next()
		}
		if err != io.EOF {
			t.Fatalf("%s: %v", c.name, err)
		}
		it.Close()
		if err := sess.Grow(quota); err != nil {
			t.Errorf("%s: a quota's worth refused once the output closed (%v): a charge was kept", c.name, err)
		}
		sess.Release()
	}
}
