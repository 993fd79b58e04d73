// Package spanfinish is a gislint test fixture: known-good and known-bad
// span lifecycle patterns. Lines carrying a want comment must produce a
// diagnostic containing the quoted substring; unmarked lines must not.
package spanfinish

import (
	"context"
	"errors"

	"gis/internal/obs"
)

var errEarly = errors.New("early")

func consume(sp *obs.Span) {}

func work() {}

// leak starts a span and never ends it: the trace truncates on every
// path.
func leak(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "leak") // want "span sp may reach a return without End"
	sp.SetAttr("k", "v")
}

// leakErrPath ends the span on the happy path only; the early return
// loses it.
func leakErrPath(ctx context.Context, fail bool) error {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "op") // want "span sp may reach a return without End"
	if fail {
		return errEarly
	}
	sp.End()
	return nil
}

// leakBranch ends the span in only one arm of the branch.
func leakBranch(ctx context.Context, ok bool) {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "op") // want "span sp may reach a return without End"
	if ok {
		sp.End()
	}
}

// endedDirect ends on the single path.
func endedDirect(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "ok")
	sp.SetAttr("k", "v")
	sp.End()
}

// endedDeferred uses the defer teardown idiom, which covers every path
// from the registration point on.
func endedDeferred(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "ok")
	defer sp.End()
	work()
}

// endedBothArms ends explicitly on each path.
func endedBothArms(ctx context.Context, fail bool) error {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "op")
	if fail {
		sp.End()
		return errEarly
	}
	sp.End()
	return nil
}

// nilGuarded starts conditionally; the nil edge of the guard carries no
// obligation (obs returns nil spans when tracing is off).
func nilGuarded(ctx context.Context, on bool) {
	var sp *obs.Span
	if on {
		_, sp = obs.StartSpan(ctx, obs.SpanQuery, "maybe")
	}
	if sp != nil {
		sp.End()
	}
}

// handedOff returns the span: the caller owns the teardown now.
func handedOff(ctx context.Context) (context.Context, *obs.Span) {
	cctx, sp := obs.StartSpan(ctx, obs.SpanQuery, "child")
	return cctx, sp
}

// capturedByCloser parks the End inside a closure it returns — the
// Engine.instrument pattern.
func capturedByCloser(ctx context.Context) func() {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "root")
	return func() { sp.End() }
}

// passedOn transfers the span to another owner.
func passedOn(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, obs.SpanQuery, "op")
	consume(sp)
}

// leakRemoteTrailer mirrors a server that opens a remote root span for
// a traced fragment but forgets it when the stream errors before its
// last frame — the SpanRemote/SpanStream kinds are tracked like any
// other span.
func leakRemoteTrailer(ctx context.Context, fail bool) error {
	rctx, root := obs.StartSpan(ctx, obs.SpanRemote, "src") // want "span root may reach a return without End"
	_, ssp := obs.StartSpan(rctx, obs.SpanStream, "rows")
	ssp.End()
	if fail {
		return errEarly
	}
	root.End()
	return nil
}

// remoteTrailerCompliant ends the remote root unconditionally after
// streaming, before anything can fail, so no path can lose it.
func remoteTrailerCompliant(ctx context.Context, fail bool) error {
	rctx, root := obs.StartSpan(ctx, obs.SpanRemote, "src")
	_, ssp := obs.StartSpan(rctx, obs.SpanStream, "rows")
	ssp.End()
	root.End()
	if fail {
		return errEarly
	}
	return nil
}
