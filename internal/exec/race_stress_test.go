package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/types"
)

// mkParallelUnion builds a parallel UNION ALL over branches × rowsPer
// single-column values nodes with distinct values.
func mkParallelUnion(branches, rowsPer int) *plan.Union {
	inputs := make([]plan.Node, branches)
	for b := 0; b < branches; b++ {
		rows := make([][]any, rowsPer)
		for j := range rows {
			rows[j] = []any{b*rowsPer + j}
		}
		inputs[b] = valuesNode(types.NewSchema(intCol("x")), rows...)
	}
	return &plan.Union{Inputs: inputs, All: true, Parallel: true}
}

// TestRaceStressParallelUnion hammers the concurrent union-all fetch
// path: many goroutines each drain a parallel union whose branches race
// on the shared merge channel. Run under -race.
func TestRaceStressParallelUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	const (
		goroutines = 8
		iters      = 25
		branches   = 6
		rowsPer    = 40
	)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, err := Collect(ctx, mkParallelUnion(branches, rowsPer))
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != branches*rowsPer {
					errs <- fmt.Errorf("parallel union returned %d rows, want %d", len(rows), branches*rowsPer)
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

// TestRaceStressParallelUnionEarlyClose abandons the merge mid-stream:
// Close must cancel the producer goroutines without leaking or racing
// on the channel. The statement is traced and its tree rendered right
// after Close, while abandoned branches may still be publishing their
// records.
func TestRaceStressParallelUnionEarlyClose(t *testing.T) {
	if testing.Short() {
		t.Skip("race stress test")
	}
	const (
		goroutines = 8
		iters      = 25
	)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr := obs.NewTrace("early close")
				it, err := Run(obs.WithTrace(ctx, tr), mkParallelUnion(6, 50))
				if err != nil {
					errs <- err
					return
				}
				// Read a prefix of varying length, then walk away.
				for n := 0; n < (g+i)%7; n++ {
					if _, err := it.Next(); err != nil {
						errs <- err
						return
					}
				}
				if err := it.Close(); err != nil {
					errs <- err
					return
				}
				if tree := tr.Tree(); !strings.Contains(tree, "exec Union") {
					errs <- fmt.Errorf("trace lost the union span:\n%s", tree)
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
