package lint

import (
	"go/ast"
)

// GoLeak requires every goroutine started in a library package to have
// a cancellation path. A federation fans out constantly — per-source
// union branches, semijoin fragments, the wire accept loop — and a
// goroutine with no way to learn the query is over outlives it: it pins
// its connection, its iterator, and a stuck source can accumulate one
// leaked goroutine per query forever. Accepted evidence, judged against
// the spawned body's transitive summary:
//
//   - a context.Context handed to the goroutine at the spawn site (the
//     callee's use of it is checked where that body spawns its own
//     work), or a body that consults ctx.Err/ctx.Done;
//   - a channel receive anywhere in the body (done-channel protocol);
//   - WaitGroup participation (Done in the body or Wait — either side
//     of the join proves a collector exists).
//
// Package main is exempt: process roots own their goroutines' lifetimes.
func GoLeak() *Analyzer {
	a := &Analyzer{
		Name: "goleak",
		Doc:  "library goroutines need a cancellation path: ctx consult, channel receive, or WaitGroup join",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.Types.Name() == "main" {
			return
		}
		ip := pass.Interproc()
		if ip == nil {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !cancellableSpawn(pass, ip, gs.Call) {
					pass.Reportf(gs.Pos(), "goroutine has no cancellation path (no ctx passed or consulted, no channel receive, no WaitGroup join); a stuck source leaks it for the life of the process")
				}
				return true
			})
		}
	}
	return a
}

// cancellableSpawn decides whether the spawned call can learn it should
// stop.
func cancellableSpawn(pass *Pass, ip *Interproc, call *ast.CallExpr) bool {
	// A context handed over at the spawn site is a cancellation path by
	// contract; this also covers unresolved callees (interface methods,
	// function parameters) whose signature demands one.
	for _, arg := range call.Args {
		if t := pass.TypeOf(arg); t != nil && isContextType(t) {
			return true
		}
	}
	site := ip.Graph.SiteOf(call)
	if site == nil || len(site.Targets) == 0 {
		return false
	}
	// Every possible body must carry evidence — the goroutine runs
	// whichever one the dynamic dispatch picks.
	for _, t := range site.Targets {
		ts := ip.SummaryOf(t)
		if ts == nil || !(ts.ConsultsCtx || ts.HasChanRecv || ts.JoinsWaitGroup) {
			return false
		}
	}
	return true
}
