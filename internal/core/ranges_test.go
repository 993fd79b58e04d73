package core

import (
	"strings"
	"testing"

	"gis/internal/source"
	"gis/internal/types"
)

// TestKeyComparedWithNullMatchesNothing: a comparison with NULL admits no
// row, and a kvstore asked one — pushed as its key range — answers none,
// in every wrapper class, as SQL and the relstore-backed tables do. It
// used to seek from just past NULL, which sorts first: every row.
func TestKeyComparedWithNullMatchesNothing(t *testing.T) {
	for _, c := range wrapperClasses {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngineVia(t, func(st source.Source) source.Source { return c.wrap(t, st) })
			for _, where := range []string{"sku > ?", "sku >= ?", "sku < 600 AND sku > ?"} {
				wantRows(t, query(t, e, "SELECT sku FROM products WHERE "+where, types.Null), false)
				wantRows(t, query(t, e, "SELECT COUNT(*) FROM products WHERE "+where, types.Null), false, "(0)")
			}
		})
	}
}

// TestInListPrunesPartitions: an IN list on the partitioning column
// prunes every fragment whose predicate admits none of its keys, for a
// read and for a write. orders is oid < 100 at ny and oid >= 100 at eu,
// so both statements below are eu's alone: one scan, and a DELETE that
// commits there by itself with no 2PC decision to log. Before, pruning
// read only comparisons, and both enlisted ny as well.
func TestInListPrunesPartitions(t *testing.T) {
	e := newTestEngine(t)
	plan, err := e.Explain(ctx, "SELECT oid FROM orders WHERE oid IN (150, 200)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(plan, "FragScan") != 1 || !strings.Contains(plan, "FragScan eu.orders") || strings.Contains(plan, "Union") {
		t.Errorf("an IN list of eu's keys plans other than one scan, at eu:\n%s", plan)
	}
	n, err := e.Exec(ctx, "DELETE FROM orders WHERE oid IN (100, 101)")
	if err != nil || n != 2 {
		t.Fatalf("DELETE of two eu rows: %d rows, %v", n, err)
	}
	if log := e.Coordinator().Log().Decisions(); len(log) != 0 {
		t.Errorf("a DELETE of eu's rows alone logged 2PC decisions %+v", log)
	}
	wantRows(t, query(t, e, "SELECT oid FROM orders"), false, "(10)", "(11)", "(12)", "(102)")
}
