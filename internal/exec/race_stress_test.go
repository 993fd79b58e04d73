package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gis/internal/catalog"
	"gis/internal/obs"
	"gis/internal/plan"
	"gis/internal/relstore"
	"gis/internal/source"
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

// lateSource delivers its sub-queries' rows a millisecond apart, and
// reads *read before each row, as a fetch reads the constants of the
// plan it runs; live counts its streams open.
type lateSource struct {
	source.Source
	live *atomic.Int32
	read *int
}

func (s lateSource) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	it, err := s.Source.Execute(ctx, q)
	if err != nil {
		return nil, err
	}
	s.live.Add(1)
	return &lateIter{RowIter: it, s: s, ctx: ctx}, nil
}

type lateIter struct {
	source.RowIter
	s      lateSource
	ctx    context.Context
	closed bool
}

func (it *lateIter) Next() (types.Row, error) {
	select {
	case <-time.After(time.Millisecond):
	case <-it.ctx.Done():
	}
	if *it.s.read < 0 {
		return nil, errors.New("a negative round")
	}
	return it.RowIter.Next()
}

func (it *lateIter) Close() error {
	if !it.closed {
		it.closed = true
		it.s.live.Add(-1)
	}
	return it.RowIter.Close()
}

// TestUnionCloseWaitsForItsFetchers closes a parallel union over four
// slow fragments after its first row: when Close returns, every fetch
// goroutine has closed its input and returned, so a plan the statement
// cache hands to the next call is read by none. Each round writes what
// the inputs read once Close has returned, which -race reports if a
// fetcher still runs.
func TestUnionCloseWaitsForItsFetchers(t *testing.T) {
	const frags, per = 4, 100
	schema := types.NewSchema(intCol("id"))
	cat := catalog.New()
	var live atomic.Int32
	round := 0
	if err := cat.DefineTable("t", schema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frags; i++ {
		st := relstore.New(fmt.Sprintf("s%d", i))
		if err := st.CreateTable("t", schema, 0); err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, per)
		for j := range rows {
			rows[j] = types.Row{types.NewInt(int64(i*per + j))}
		}
		if _, err := st.Insert(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddSource(lateSource{Source: st, live: &live, read: &round}); err != nil {
			t.Fatal(err)
		}
		if err := cat.MapSimple(ctx, "t", st.Name(), "t"); err != nil {
			t.Fatal(err)
		}
	}
	p := (&ownFed{cat: cat}).plan(t, "SELECT id FROM t", func(o *plan.Options) { o.ParallelFragments = true })
	if !strings.Contains(plan.Explain(p), "Union all parallel") {
		t.Fatalf("want a parallel union of the fragments:\n%s", plan.Explain(p))
	}
	for ; round < 20; round++ {
		it, err := Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if n := live.Load(); n != 0 {
			t.Fatalf("round %d: %d inputs still open when Close returned", round, n)
		}
	}
}
