// Package txn implements the mediator's atomic commitment protocol:
// presumed-abort two-phase commit across autonomous participants, with a
// decision log and bounded commit retries (participants must make Commit
// idempotent), each round driven to every participant at once. Global
// updates in a federation need exactly this — the component systems are
// autonomous, so the mediator can only coordinate, never overrule.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gis/internal/obs"
	"gis/internal/resilience"
	"gis/internal/source"
)

// Commit-protocol outcome counters and per-participant round latencies.
var (
	mCommitted       = obs.Default().Counter("txn.committed")
	mAborted         = obs.Default().Counter("txn.aborted")
	mInDoubt         = obs.Default().Counter("txn.in_doubt")
	mPrepareLatency  = obs.Default().Histogram("txn.participant.prepare_seconds", obs.LatencyBuckets)
	mCommitLatency   = obs.Default().Histogram("txn.participant.commit_seconds", obs.LatencyBuckets)
	mParticipantFail = obs.Default().Counter("txn.participant.failures")
)

// State is the lifecycle of a global transaction.
type State uint8

// Global transaction states.
const (
	StateActive State = iota
	StatePreparing
	StateCommitted
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePreparing:
		return "preparing"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Decision is a logged coordinator decision.
type Decision struct {
	TxID         string
	Commit       bool
	Participants []string
	At           time.Time
}

// Log records coordinator decisions. This in-memory implementation
// stands in for the stable log a production coordinator would force to
// disk before the commit phase; the interface boundary is what matters
// for the protocol.
type Log struct {
	mu        sync.Mutex
	decisions []Decision
}

// Append records a decision.
func (l *Log) Append(d Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d.At = time.Now()
	l.decisions = append(l.decisions, d)
}

// Decisions returns a copy of the log.
func (l *Log) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Decision(nil), l.decisions...)
}

// decisionDelivery bounds the commit round. Once the decision is logged
// the round no longer answers to the caller's deadline or cancellation
// (see GlobalTx.Commit), so it needs a limit of its own: a participant
// that has stopped answering is reported in-doubt after this long.
const decisionDelivery = 10 * time.Second

// commitRetries bounds the retry loop for a participant whose Commit
// acknowledgement is lost.
const commitRetries = 3

// commitBackoff paces the commit-retry loop (jittered, context-
// aware): retrying the instant an acknowledgement is lost mostly re-hits
// the same partition.
var commitBackoff = &resilience.Policy{BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond}

// Coordinator creates and drives global transactions.
type Coordinator struct {
	log *Log

	mu     sync.Mutex
	nextID uint64
}

// NewCoordinator returns a coordinator with an empty decision log.
func NewCoordinator() *Coordinator {
	return &Coordinator{log: &Log{}}
}

// Log exposes the decision log (read-mostly; used by recovery tooling
// and tests).
func (c *Coordinator) Log() *Log { return c.log }

// Begin starts a new global transaction.
func (c *Coordinator) Begin() *GlobalTx {
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("gtx-%d", c.nextID)
	c.mu.Unlock()
	return &GlobalTx{coord: c, id: id, state: StateActive}
}

// GlobalTx is one distributed transaction spanning multiple participants.
// It is not safe for concurrent use.
type GlobalTx struct {
	coord *Coordinator
	id    string
	state State

	names []string
	txs   []source.Tx
}

// ID returns the transaction id.
func (g *GlobalTx) ID() string { return g.id }

// State returns the current lifecycle state.
func (g *GlobalTx) State() State { return g.state }

// Enlist adds a participant. name identifies the participant in the
// decision log. Enlisting after Commit/Abort is an error.
func (g *GlobalTx) Enlist(name string, tx source.Tx) error {
	if g.state != StateActive {
		return fmt.Errorf("txn %s: enlist in state %s", g.id, g.state)
	}
	g.names = append(g.names, name)
	g.txs = append(g.txs, tx)
	return nil
}

// Participants returns the enlisted participant names.
func (g *GlobalTx) Participants() []string { return append([]string(nil), g.names...) }

// fanOut runs fn over every participant concurrently and collects the
// first error per participant.
func (g *GlobalTx) fanOut(fn func(i int) error) []error {
	errs := make([]error, len(g.txs))
	var wg sync.WaitGroup
	for i := range g.txs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// Commit drives two-phase commit. On any prepare failure every
// participant is aborted and the error is returned (presumed abort — no
// decision needs logging for the abort path). After the commit decision
// is logged, commit is retried per participant up to commitRetries; a
// participant that still fails leaves the transaction in-doubt on that
// participant and the error reports it (the decision log resolves it).
//
// ctx governs the prepare round only. A caller that runs out of time
// before the decision gets an abort everywhere; one that runs out after
// it does not get to stop the commit round halfway, with one
// participant committed and the next never told — that round runs to
// its end, or to decisionDelivery, under a context of its own.
func (g *GlobalTx) Commit(ctx context.Context) error {
	if g.state != StateActive {
		return fmt.Errorf("txn %s: commit in state %s", g.id, g.state)
	}
	if len(g.txs) == 0 {
		g.state = StateCommitted
		return nil
	}
	g.state = StatePreparing
	ctx, span := obs.StartSpan(ctx, obs.SpanCommit, "2pc "+g.id)
	span.SetInt("participants", int64(len(g.txs)))
	defer span.End()

	// Phase 1: prepare (vote collection).
	prepErrs := g.fanOut(func(i int) error {
		_, ps := obs.StartSpan(ctx, obs.SpanPrepare, g.names[i])
		start := time.Now()
		err := g.txs[i].Prepare(ctx)
		mPrepareLatency.ObserveSince(start)
		if err != nil {
			mParticipantFail.Inc()
			ps.SetAttr("error", err.Error())
		}
		ps.End()
		return err
	})
	var voteErr error
	for i, err := range prepErrs {
		if err != nil {
			voteErr = fmt.Errorf("participant %s voted abort: %w", g.names[i], err)
			break
		}
	}
	if voteErr != nil {
		g.fanOut(func(i int) error { return g.txs[i].Abort(ctx) })
		g.state = StateAborted
		mAborted.Inc()
		span.SetAttr("outcome", "aborted")
		return voteErr
	}

	// Decision point: log commit, then it is irrevocable.
	g.coord.log.Append(Decision{TxID: g.id, Commit: true, Participants: g.Participants()})
	g.state = StateCommitted
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), decisionDelivery)
	defer cancel()

	// Phase 2: commit with bounded retry (Commit must be idempotent).
	commitErrs := g.fanOut(func(i int) error {
		_, cs := obs.StartSpan(ctx, obs.SpanCommit, g.names[i])
		defer cs.End()
		start := time.Now()
		var err error
		for attempt := 0; attempt <= commitRetries; attempt++ {
			if attempt > 0 {
				// The decision is already logged and irrevocable, so only
				// the delivery bound stops the retry loop early — the
				// participant stays in-doubt and the decision log resolves
				// it. The jittered pause keeps retries from hammering the
				// same partition window.
				if ctx.Err() != nil {
					break
				}
				if serr := resilience.SleepBackoff(ctx, commitBackoff, attempt); serr != nil {
					break
				}
			}
			if err = g.txs[i].Commit(ctx); err == nil {
				if attempt > 0 {
					cs.SetInt("retries", int64(attempt))
				}
				mCommitLatency.ObserveSince(start)
				return nil
			}
		}
		mCommitLatency.ObserveSince(start)
		mParticipantFail.Inc()
		cs.SetAttr("error", err.Error())
		return err
	})
	var inDoubt []string
	var firstErr error
	for i, err := range commitErrs {
		if err != nil {
			inDoubt = append(inDoubt, g.names[i])
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(inDoubt) > 0 {
		mInDoubt.Inc()
		span.SetAttr("outcome", "in-doubt")
		return fmt.Errorf("txn %s committed but participants %v did not acknowledge: %w", g.id, inDoubt, firstErr)
	}
	mCommitted.Inc()
	span.SetAttr("outcome", "committed")
	return nil
}

// Abort rolls every participant back.
func (g *GlobalTx) Abort(ctx context.Context) error {
	switch g.state {
	case StateAborted:
		return nil
	case StateCommitted:
		return fmt.Errorf("txn %s: abort after commit", g.id)
	default:
		// Active or preparing: drive the abort round below.
	}
	ctx, span := obs.StartSpan(ctx, obs.SpanAbort, "abort "+g.id)
	defer span.End()
	errs := g.fanOut(func(i int) error { return g.txs[i].Abort(ctx) })
	g.state = StateAborted
	mAborted.Inc()
	return errors.Join(errs...)
}
