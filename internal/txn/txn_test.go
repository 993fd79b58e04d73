package txn

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gis/internal/expr"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
)

var ctx = context.Background()

func newStore(t *testing.T, name string) *relstore.Store {
	t.Helper()
	s := relstore.New(name)
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt},
		types.Column{Name: "v", Type: types.KindInt},
	)
	if err := s.CreateTable("acct", schema, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(ctx, "acct", []types.Row{
		{types.NewInt(1), types.NewInt(100)},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func rowCount(t *testing.T, s *relstore.Store) int64 {
	t.Helper()
	info, err := s.TableInfo(ctx, "acct")
	if err != nil {
		t.Fatal(err)
	}
	return info.RowCount
}

// staged begins a participant tx on s and stages one insert.
func staged(t *testing.T, s *relstore.Store, id int64) source.Tx {
	t.Helper()
	tx, err := s.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert(ctx, "acct", []types.Row{
		{types.NewInt(id), types.NewInt(0)},
	}); err != nil {
		t.Fatal(err)
	}
	return tx
}

// enlistWithWrite enlists a participant tx on s with one insert staged.
func enlistWithWrite(t *testing.T, g *GlobalTx, s *relstore.Store, id int64) {
	t.Helper()
	if err := g.Enlist(s.Name(), staged(t, s, id)); err != nil {
		t.Fatal(err)
	}
}

// faultyTx is a participant's transaction with a failure injected: its
// vote is no, or its first commit is applied and then reported failed,
// as when the acknowledgement is lost.
type faultyTx struct {
	source.Tx
	voteNo, loseAck bool
}

func (f *faultyTx) Prepare(ctx context.Context) error {
	if f.voteNo {
		return errors.New("prepare refused (injected failure)")
	}
	return f.Tx.Prepare(ctx)
}

func (f *faultyTx) Commit(ctx context.Context) error {
	err := f.Tx.Commit(ctx)
	if err == nil && f.loseAck {
		f.loseAck = false
		return errors.New("commit ack lost (injected failure)")
	}
	return err
}

func TestTwoPhaseCommitSuccess(t *testing.T) {
	a, b := newStore(t, "A"), newStore(t, "B")
	c := NewCoordinator()
	g := c.Begin()
	enlistWithWrite(t, g, a, 10)
	enlistWithWrite(t, g, b, 10)
	if err := g.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if g.State() != StateCommitted {
		t.Errorf("state = %s", g.State())
	}
	if rowCount(t, a) != 2 || rowCount(t, b) != 2 {
		t.Error("writes not applied on both participants")
	}
	log := c.Log().Decisions()
	if len(log) != 1 || !log[0].Commit || len(log[0].Participants) != 2 {
		t.Errorf("decision log = %+v", log)
	}
}

func TestTwoPhaseCommitAbortOnVoteNo(t *testing.T) {
	a, b := newStore(t, "A"), newStore(t, "B")
	c := NewCoordinator()
	g := c.Begin()
	enlistWithWrite(t, g, a, 10)
	if err := g.Enlist(b.Name(), &faultyTx{Tx: staged(t, b, 10), voteNo: true}); err != nil {
		t.Fatal(err)
	}
	err := g.Commit(ctx)
	if err == nil {
		t.Fatal("commit must fail when a participant votes no")
	}
	if g.State() != StateAborted {
		t.Errorf("state = %s", g.State())
	}
	// Atomicity: neither store applied the write.
	if rowCount(t, a) != 1 || rowCount(t, b) != 1 {
		t.Error("aborted txn leaked writes")
	}
	// No commit decision logged (presumed abort).
	if len(c.Log().Decisions()) != 0 {
		t.Errorf("abort path logged decisions: %+v", c.Log().Decisions())
	}
}

func TestTwoPhaseCommitRetriesLostAck(t *testing.T) {
	a, b := newStore(t, "A"), newStore(t, "B")
	c := NewCoordinator()
	g := c.Begin()
	enlistWithWrite(t, g, a, 10)
	lossy := &faultyTx{Tx: staged(t, b, 10), loseAck: true}
	if err := g.Enlist(b.Name(), lossy); err != nil {
		t.Fatal(err)
	}
	if err := g.Commit(ctx); err != nil {
		t.Fatalf("lost ack must be absorbed by retry: %v", err)
	}
	if lossy.loseAck {
		t.Error("the injected lost acknowledgement never happened")
	}
	if rowCount(t, a) != 2 || rowCount(t, b) != 2 {
		t.Error("writes missing after retried commit")
	}
}

// stubTx lets tests script participant behavior precisely.
type stubTx struct {
	prepareErr error
	commitErr  error
	commits    int
	aborts     int
	prepares   int
}

func (s *stubTx) Insert(context.Context, string, []types.Row) (int64, error) { return 0, nil }
func (s *stubTx) Update(context.Context, string, expr.Expr, []source.SetClause) (int64, error) {
	return 0, nil
}
func (s *stubTx) Delete(context.Context, string, expr.Expr) (int64, error) { return 0, nil }
func (s *stubTx) Prepare(context.Context) error {
	s.prepares++
	return s.prepareErr
}
func (s *stubTx) Commit(context.Context) error {
	s.commits++
	return s.commitErr
}
func (s *stubTx) Abort(context.Context) error {
	s.aborts++
	return nil
}

func TestCommitExhaustsRetriesLeavesInDoubt(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	bad := &stubTx{commitErr: errors.New("network down")}
	g.Enlist("bad", bad)
	err := g.Commit(ctx)
	if err == nil {
		t.Fatal("unacknowledged commit must surface an error")
	}
	if g.State() != StateCommitted {
		t.Errorf("decision is commit even when acks fail: %s", g.State())
	}
	if want := 1 + commitRetries; bad.commits != want {
		t.Errorf("commit attempts = %d, want %d", bad.commits, want)
	}
	// The decision log resolves the in-doubt participant.
	log := c.Log().Decisions()
	if len(log) != 1 || !log[0].Commit {
		t.Errorf("log = %+v", log)
	}
}

// hurriedTx is a participant whose coordinator's caller runs out of
// patience the moment its vote is in: onPrepared cancels the caller's
// context, and Commit does what a wire participant does with a dead
// context — nothing.
type hurriedTx struct {
	stubTx
	onPrepared func()
}

func (h *hurriedTx) Prepare(ctx context.Context) error {
	defer h.onPrepared()
	return h.stubTx.Prepare(ctx)
}

func (h *hurriedTx) Commit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.stubTx.Commit(ctx)
}

// TestCommitRoundOutlivesCallerDeadline: the caller's context decides
// whether a transaction commits only until the decision is logged.
// After that, cutting the commit round short would leave one
// participant committed and another holding its locks, undecided. The
// rounds run concurrently, so the caller gives up after the last vote or
// between two; the commit round reaches both either way.
func TestCommitRoundOutlivesCallerDeadline(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	cctx, cancel := context.WithCancel(ctx)
	first, last := &hurriedTx{onPrepared: func() {}}, &hurriedTx{onPrepared: cancel}
	g.Enlist("first", first)
	g.Enlist("last", last)
	if err := g.Commit(cctx); err != nil {
		t.Fatalf("commit decided before the caller gave up, reported %v", err)
	}
	if cctx.Err() == nil {
		t.Fatal("the caller's context was meant to be done by now")
	}
	if first.commits != 1 || last.commits != 1 {
		t.Errorf("commits delivered = %d, %d; want every participant told once", first.commits, last.commits)
	}
}

func TestPrepareFailureAbortsEveryone(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	ok1, bad, ok2 := &stubTx{}, &stubTx{prepareErr: errors.New("no")}, &stubTx{}
	g.Enlist("ok1", ok1)
	g.Enlist("bad", bad)
	g.Enlist("ok2", ok2)
	if err := g.Commit(ctx); err == nil {
		t.Fatal("want vote-no error")
	}
	for i, s := range []*stubTx{ok1, bad, ok2} {
		if s.aborts != 1 {
			t.Errorf("participant %d aborts = %d, want 1", i, s.aborts)
		}
		if s.commits != 0 {
			t.Errorf("participant %d committed after abort decision", i)
		}
	}
}

func TestAbortExplicit(t *testing.T) {
	a := newStore(t, "A")
	c := NewCoordinator()
	g := c.Begin()
	enlistWithWrite(t, g, a, 10)
	if err := g.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if rowCount(t, a) != 1 {
		t.Error("abort did not roll back")
	}
	if err := g.Abort(ctx); err != nil {
		t.Error("abort must be idempotent")
	}
	if err := g.Commit(ctx); err == nil {
		t.Error("commit after abort must error")
	}
	if err := g.Enlist("late", &stubTx{}); err == nil {
		t.Error("enlist after abort must error")
	}
}

func TestEmptyTransaction(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	if err := g.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if g.State() != StateCommitted {
		t.Error("empty txn should commit trivially")
	}
}

func TestParticipantLookup(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	g.Enlist("x", &stubTx{})
	if got := g.Participants(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Participants() = %v, want [x]", got)
	}
}

func TestUniqueTxIDs(t *testing.T) {
	c := NewCoordinator()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := c.Begin().ID()
		if seen[id] {
			t.Fatalf("duplicate tx id %s", id)
		}
		seen[id] = true
	}
}

func TestManyParticipantsParallel(t *testing.T) {
	c := NewCoordinator()
	g := c.Begin()
	stubs := make([]*stubTx, 16)
	for i := range stubs {
		stubs[i] = &stubTx{}
		g.Enlist(fmt.Sprintf("p%d", i), stubs[i])
	}
	if err := g.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range stubs {
		if s.prepares != 1 || s.commits != 1 {
			t.Errorf("participant %d: prepares=%d commits=%d", i, s.prepares, s.commits)
		}
	}
}
