package workload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentGlobalUpdates runs the same two-participant UPDATE from
// four sessions of one engine at once. Every participant's store is
// locked from a transaction's first write to its commit, so this is the
// test of everything that must hold for such locks not to deadlock: one
// enlist order, a connection per remote transaction, and a participant
// that lets go when its coordinator gives up. No analyzer sees any of
// it — the lock is held in the server across the client's round trips,
// and what releases it arrives over a connection.
//
// In the hurried variant every other statement has 1 ms or less to
// finish (four lengths, so that the deadline lands on different steps).
// It may fail anywhere — before its first write, between two
// participants, in the prepare round — but only with its deadline's
// error and only by doing nothing at all: the balances must add up to
// the statements that reported success, and a statement with no
// deadline must get through afterwards.
func TestConcurrentGlobalUpdates(t *testing.T) {
	const (
		sessions   = 4
		perSession = 25
		stmt       = "UPDATE accounts SET balance = balance + 1 WHERE id = 1 OR id = 101"
		initialSum = 2 * 100 * 1000
	)
	for _, tc := range []struct {
		name            string
		remote, hurried bool
	}{
		{"local", false, false},
		{"remote", true, false},
		{"local_hurried", false, true},
		{"remote_hurried", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := TxnStores(ctx, 2, 100, tc.remote, Link{})
			if err != nil {
				t.Fatal(err)
			}
			var committed, gaveUp atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < perSession; i++ {
						hurried := tc.hurried && (s+i)%2 == 0
						limit := 2 * time.Second
						if hurried {
							limit = time.Duration(1+i%4) * 250 * time.Microsecond
						}
						sctx, cancel := context.WithTimeout(ctx, limit)
						n, err := f.Engine.Exec(sctx, stmt)
						cancel()
						switch {
						case err == nil && n == 2:
							committed.Add(1)
						case hurried && errors.Is(err, context.DeadlineExceeded):
							gaveUp.Add(1)
						default:
							t.Errorf("session %d statement %d (hurried=%v): %d rows, %v", s, i, hurried, n, err)
						}
					}
				}(s)
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(5 * time.Second):
				// The fixture is not closed: a wedged participant would hang
				// that too, and the verdict is already in.
				t.Fatalf("%d committed, %d gave up, the rest still blocked after 5s", committed.Load(), gaveUp.Load())
			}
			defer f.Close()
			t.Logf("%d committed, %d gave up on their deadline, in %v", committed.Load(), gaveUp.Load(), time.Since(start))
			if !tc.hurried && committed.Load() != sessions*perSession {
				t.Errorf("%d of %d statements committed", committed.Load(), sessions*perSession)
			}

			// Whatever the hurried statements left behind must be gone: a
			// statement in no hurry gets every lock it asks for.
			last := make(chan error, 1)
			go func() {
				_, err := f.Engine.Exec(ctx, stmt)
				last <- err
			}()
			select {
			case err := <-last:
				if err != nil {
					t.Fatalf("the statement after the run: %v", err)
				}
				committed.Add(1)
			case <-time.After(5 * time.Second):
				t.Fatal("the statement after the run is still waiting for a lock after 5s")
			}
			res, err := f.Engine.Query(ctx, "SELECT SUM(balance) FROM accounts")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Rows[0][0].Float(), float64(initialSum+2*committed.Load()); got != want {
				t.Errorf("SUM(balance) = %v, want %v: %d statements reported success", got, want, committed.Load())
			}
		})
	}
}
