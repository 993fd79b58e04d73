// Overload chaos: many tenants drive a wire-attached federation past
// its admission capacity while one slow consumer drags a stream out,
// exercising quotas, typed shedding, TCP backpressure on a result
// stream, and the engine's session accounting all at once. Lives in
// package core_test because it builds fixtures through internal/workload
// (which imports core).
package core_test

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/workload"
)

func TestChaosOverload(t *testing.T) {
	ctx := context.Background()
	goroutinesBefore := runtime.NumGoroutine()

	f, err := workload.TwoTable(ctx, 50, 2000, true, workload.Link{})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT region, SUM(amount) FROM orders GROUP BY region"

	// Uncontended baseline before the controller goes in.
	if _, err := f.Engine.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	var base []time.Duration
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := f.Engine.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		base = append(base, time.Since(start))
	}

	// Capacity far below the offered load: per-tenant buckets that
	// cannot sustain a tight loop are the binding constraint (they are
	// the fairness mechanism — a global FIFO queue alone would let
	// early arrivals starve the rest), with the global cap behind them.
	f.Engine.SetAdmission(admission.New(admission.Config{
		MaxInFlight: 4,
		MaxQueue:    8,
		MaxWait:     15 * time.Millisecond,
		TenantRate:  30,
		TenantBurst: 2,
		MemQuota:    8 << 20,
	}))

	// One slow consumer holds a streaming result open for the whole
	// storm: full socket buffers must stall its producer instead of the
	// stream being buffered into server memory.
	slowDone := make(chan error, 1)
	go func() {
		sctx := admission.WithTenant(ctx, "slowpoke")
		_, it, err := f.Engine.QueryIter(sctx, "SELECT oid, amount FROM orders")
		if err != nil {
			slowDone <- err
			return
		}
		defer it.Close()
		n := 0
		for {
			_, err := it.Next()
			if err == io.EOF {
				slowDone <- nil
				return
			}
			if err != nil {
				slowDone <- err
				return
			}
			n++
			if n%200 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	results := workload.RunOverload(ctx, f.Engine, 6, 25, q)

	if err := <-slowDone; err != nil && !errors.Is(err, admission.ErrOverload) {
		t.Fatalf("slow consumer died outside the shed taxonomy: %v", err)
	}

	var admitted, shed int64
	var lat []time.Duration
	for _, r := range results {
		admitted += r.Admitted
		shed += r.Shed
		lat = append(lat, r.Latencies...)
		if r.Failed > 0 {
			t.Errorf("%s: %d hard failures; every rejection must be a typed ErrOverload", r.Tenant, r.Failed)
		}
		// Fairness: per-tenant buckets guarantee each tenant both makes
		// progress and absorbs a share of the shedding.
		if r.Admitted == 0 {
			t.Errorf("%s: starved (0 admitted of 25)", r.Tenant)
		}
		if r.Shed == 0 {
			t.Errorf("%s: shed nothing under 4x+ overload; shedding is concentrated elsewhere", r.Tenant)
		}
	}
	if shed == 0 {
		t.Fatal("overload produced no sheds at all")
	}
	t.Logf("admitted=%d shed=%d (baseline p99 %v, loaded p99 %v)",
		admitted, shed, workload.Percentile(base, 99), workload.Percentile(lat, 99))

	// Admitted queries must stay responsive: bounded by the uncontended
	// tail plus the queueing the config explicitly allows (bucket wait +
	// slot wait), with slack for the race detector.
	if p99, bound := workload.Percentile(lat, 99), 2*workload.Percentile(base, 99)+200*time.Millisecond; p99 > bound {
		t.Errorf("admitted p99 %v exceeds %v; admission is queueing instead of shedding", p99, bound)
	}

	// Memory ceiling: the storm streams a few MB of rows; anything near
	// the ceiling means backpressure or quotas stopped bounding buffers.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("HeapAlloc after storm = %d MiB, want < 256 MiB", ms.HeapAlloc>>20)
	}

	// Zero goroutine leaks: closing the fixture must return the process
	// to its pre-test population (give servers a moment to unwind).
	f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before storm, %d after close", goroutinesBefore, runtime.NumGoroutine())
}
