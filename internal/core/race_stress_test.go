package core

import (
	"fmt"
	"sync"
	"testing"

	"gis/internal/plan"
)

// TestRaceStressBindJoinKeyShipping drives the semijoin over a
// two-fragment right side from many goroutines at once: each query
// materializes the left side, ships its keys to both order fragments
// concurrently, and joins at the
// mediator. The engine and both relstores are shared, so fragment
// fan-out races against sibling queries. Run under -race.
func TestRaceStressBindJoinKeyShipping(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	e := newTestEngine(t)
	e.PlanOptions().ForceStrategy = plan.StrategySemiJoin
	const (
		goroutines = 8
		iters      = 15
	)
	q := "SELECT c.name, o.oid FROM customers c JOIN orders o ON c.id = o.cust_id"
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := e.Query(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 6 {
					errs <- fmt.Errorf("key-shipped join returned %d rows, want 6", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRaceStressSemijoinAndParallelFragments mixes the semijoin
// strategy with parallel fragment scans across concurrent queries.
func TestRaceStressSemijoinAndParallelFragments(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	e := newTestEngine(t)
	e.PlanOptions().ForceStrategy = plan.StrategySemiJoin
	e.PlanOptions().ParallelFragments = true
	const (
		goroutines = 8
		iters      = 15
	)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var q string
				var want int
				if (g+i)%2 == 0 {
					q = "SELECT o.oid, p.pname FROM orders o JOIN products p ON o.sku = p.sku"
					want = 6
				} else {
					q = "SELECT COUNT(*) FROM orders"
					want = 1
				}
				res, err := e.Query(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != want {
					errs <- fmt.Errorf("%q returned %d rows, want %d", q, len(res.Rows), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
