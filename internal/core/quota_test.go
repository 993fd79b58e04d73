// The memory quota bounds what one statement holds at the mediator. In
// package core_test because the fixtures come from internal/workload.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"gis/internal/admission"
	"gis/internal/core"
	"gis/internal/source"
	"gis/internal/workload"
)

// memQuotaErr fails the test unless err is the statement's own memory
// quota refusing it: a typed, non-retryable mem_quota overload, and not
// a bare cancellation.
func memQuotaErr(t *testing.T, what string, err error) {
	t.Helper()
	var oe *admission.OverloadError
	switch {
	case errors.Is(err, context.Canceled):
		t.Errorf("%s: %v, a cancellation; want the typed mem_quota error", what, err)
	case !errors.As(err, &oe) || !errors.Is(err, admission.ErrOverload):
		t.Errorf("%s: %v, want a mem_quota ErrOverload", what, err)
	case oe.Reason != admission.ReasonMemQuota || oe.Retryable:
		t.Errorf("%s: %+v, want non-retryable mem_quota", what, oe)
	}
}

// drain reads it one row at a time, holding none, and closes it.
func drain(it source.RowIter) (int, error) {
	defer it.Close()
	for n := 0; ; n++ {
		if _, err := it.Next(); err == io.EOF {
			return n, it.Close()
		} else if err != nil {
			return n, err
		}
	}
}

// TestQuotaChargesWhatIsHeld: under a 32 KiB quota a stream read one row
// at a time holds one row, so all 2 000 orders arrive — until the quota
// charged bytes fetched it was aborted after 1 724 — while a self-join
// whose 2 450 rows (46 550 estimated bytes) are materialized from 50
// customers is refused, where it used to complete. A count holds one
// group and completes. In process and served alike.
func TestQuotaChargesWhatIsHeld(t *testing.T) {
	ctx := context.Background()
	for _, remote := range []bool{false, true} {
		f, err := workload.TwoTable(ctx, 50, 2000, remote, workload.Link{})
		if err != nil {
			t.Fatal(err)
		}
		f.Engine.SetAdmission(admission.New(admission.Config{MemQuota: 32 << 10}))

		_, it, err := f.Engine.QueryIter(ctx, "SELECT oid, amount FROM orders")
		if err != nil {
			t.Fatalf("remote=%v: %v", remote, err)
		}
		if n, err := drain(it); n != 2000 || err != nil {
			t.Errorf("remote=%v: the stream read %d rows, %v; want all 2000", remote, n, err)
		}

		res, err := f.Engine.Query(ctx, "SELECT a.id, b.id FROM customers a JOIN customers b ON a.id <> b.id")
		if res != nil {
			t.Errorf("remote=%v: the self-join materialized %d rows under the quota", remote, len(res.Rows))
		}
		memQuotaErr(t, fmt.Sprintf("remote=%v: the self-join", remote), err)

		if res, err := f.Engine.Query(ctx, "SELECT COUNT(*) FROM customers"); err != nil || res.Rows[0][0].Int() != 50 {
			t.Errorf("remote=%v: COUNT(*) = %v, %v; want 50", remote, res, err)
		}
		f.Close()
	}
}

// TestQuotaErrorIsTyped: a statement past its quota gets the typed
// mem_quota error from every entry point, whichever holder grew past it
// — the result Engine.Query keeps, a join's build side under a union
// that QueryIter's Next delivers, the rows a row-moving UPDATE reads,
// an IN-subquery's result — and never a bare cancellation. A statement
// of the same tenant streaming beside them holds nothing and completes.
func TestQuotaErrorIsTyped(t *testing.T) {
	ctx := admission.WithTenant(context.Background(), "acme")
	// Two partitions of 500 events, oid 0…999; one event is about 36
	// estimated bytes, so the whole table is four times the quota.
	f, err := workload.Partitioned(ctx, 2, 500, true, workload.Link{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Engine.SetAdmission(admission.New(admission.Config{MemQuota: 4 << 10}))
	// A union branch refused by the quota fails the statement: it is no
	// source failure for a partial result to report.
	f.Engine.SetPartialResults(true)

	_, beside, err := f.Engine.QueryIter(ctx, "SELECT oid, amount FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beside.Next(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		run  func(*core.Engine) error
	}{
		{"Query", func(e *core.Engine) error {
			_, err := e.Query(ctx, "SELECT oid, region FROM events")
			return err
		}},
		{"QueryIter.Next", func(e *core.Engine) error {
			_, it, err := e.QueryIter(ctx, "SELECT a.oid FROM events a JOIN events b ON a.oid = b.cust_id UNION ALL SELECT oid FROM events")
			if err != nil {
				t.Errorf("QueryIter refused before its first row: %v", err)
				return err
			}
			_, err = drain(it)
			return err
		}},
		{"Exec of a row-moving UPDATE", func(e *core.Engine) error {
			_, err := e.Exec(ctx, "UPDATE events SET oid = oid + 500 WHERE oid < 500")
			return err
		}},
		{"IN-subquery", func(e *core.Engine) error {
			_, err := e.Query(ctx, "SELECT COUNT(*) FROM events WHERE cust_id IN (SELECT oid FROM events)")
			return err
		}},
	} {
		memQuotaErr(t, c.name, c.run(f.Engine))
	}

	if n, err := drain(beside); n != 999 || err != nil {
		t.Errorf("the statement beside read %d more rows, %v; want 999", n, err)
	}
}
