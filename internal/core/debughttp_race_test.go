package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gis/internal/obs"
)

// TestRaceStressDebugHandlers hammers every debug HTTP endpoint while
// federated queries execute concurrently, so the handlers' snapshot
// paths race against live span trees, the slow-query ring and the
// active map. Every response must be 200 with valid JSON. Run under
// -race.
func TestRaceStressDebugHandlers(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	e := traceFederation(t, "dbgA", "dbgB")
	// Zero threshold: every statement lands in the slow ring, so /slow
	// serves capped span subtrees while queries finish.
	e.Queries().SetThreshold(0)
	dbg := httptest.NewServer(obs.Handler(obs.Default(), e.Queries()))
	defer dbg.Close()

	const (
		queryWorkers = 4
		httpWorkers  = 4
		iters        = 20
	)
	paths := []string{"/metrics", "/slow", "/sessions"}
	errs := make(chan error, queryWorkers+httpWorkers)
	var wg sync.WaitGroup
	for g := 0; g < queryWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := e.Query(ctx,
					"SELECT c.name, SUM(o.amount) FROM cust c JOIN ord o ON c.id = o.cust_id GROUP BY c.name")
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 2 {
					errs <- fmt.Errorf("join returned %d rows, want 2", len(res.Rows))
					return
				}
			}
		}()
	}
	for g := 0; g < httpWorkers; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := paths[(worker+i)%len(paths)]
				resp, err := http.Get(dbg.URL + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("GET %s: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					errs <- fmt.Errorf("GET %s: invalid JSON: %.120s", path, body)
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
