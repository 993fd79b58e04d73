// Package lint is a stdlib-only static-analysis framework enforcing the
// mediator's cross-layer invariants — the contracts that Go's type
// system cannot express but that the federation's correctness depends
// on. Syntactic analyzers check single sites: errors must not be
// silently dropped, heterogeneous Values must never be compared with raw
// ==, and switches over plan/expr/kind enumerations must stay exhaustive
// as node types are added. Flow-sensitive analyzers check paths over a
// function-level CFG (cfg.go) with forward dataflow (dataflow.go):
// Volcano iterators must be closed or handed off on every path, obs
// spans must reach End on every path, contexts must propagate into
// blocking calls, and no mutex may be held across a blocking operation.
//
// The framework deliberately avoids golang.org/x/tools: packages are
// parsed with go/parser, type-checked with go/types, and analyzed over
// the typed AST, keeping the repo dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-line description printed by the driver's -list.
	Doc string
	// Run analyzes one package, reporting findings through the pass.
	Run func(*Pass)
}

// All returns the full analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		IterClose(),
		ErrDrop(),
		ValueCompare(),
		Exhaustive(),
		SpanFinish(),
		CtxFlow(),
		LockHeld(),
		SQLShip(),
		GoLeak(),
		LockOrder(),
	}
}

// Pass carries one (package, analyzer) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	loader *Loader
	ip     *Interproc
	mu     *sync.Mutex
	out    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	p.mu.Lock()
	*p.out = append(*p.out, d)
	p.mu.Unlock()
}

// TypeOf returns the type of e, or nil when the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.ObjectOf(id) }

// Interproc exposes the shared call graph and function summaries built
// once per Run and reused by every analyzer pass.
func (p *Pass) Interproc() *Interproc { return p.ip }

// InModule reports whether pkg belongs to the analyzed module.
func (p *Pass) InModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == p.loader.ModulePath || strings.HasPrefix(path, p.loader.ModulePath+"/")
}

// Named looks up a named type by import path and name across every
// package the loader has seen. It returns nil when the type is not
// reachable from the analyzed packages (then no value of it can occur).
func (p *Pass) Named(path, name string) *types.Named {
	tp := p.loader.Dep(path)
	if tp == nil && p.Pkg.Path == path {
		tp = p.Pkg.Types
	}
	if tp == nil {
		return nil
	}
	obj, ok := tp.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, _ := obj.Type().(*types.Named)
	return named
}

// Parent returns the syntactic parent of n within its file (shared,
// package-level cache).
func (p *Pass) Parent(n ast.Node) ast.Node { return p.Pkg.Parent(n) }

// AnalyzerStat is one analyzer's aggregate cost over a run.
type AnalyzerStat struct {
	Name string
	// Wall is the summed wall time of the analyzer's package passes
	// (passes run concurrently, so analyzer walls can overlap).
	Wall time.Duration
}

// RunInfo describes one Run: per-analyzer cost.
type RunInfo struct {
	Analyzers []AnalyzerStat
}

// Run executes analyzers over packages in parallel, applies lint:ignore
// suppressions, and returns the findings sorted by position. Malformed
// suppressions (no analyzer, no reason) surface as findings of the
// pseudo-analyzer "suppress".
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunWithInfo(l, pkgs, analyzers)
	return diags
}

// RunWithInfo is Run plus per-analyzer timing for the driver's -v.
func RunWithInfo(l *Loader, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *RunInfo) {
	info := &RunInfo{}

	// The interprocedural layer — call graph plus function summaries —
	// is built once over every loaded package and shared (read-only) by
	// all analyzer passes.
	ip := BuildInterproc(l)

	var (
		mu  sync.Mutex
		out []Diagnostic
		wg  sync.WaitGroup
		// Bound the fan-out: one goroutine per (package, analyzer) pair
		// is wasteful for big module trees.
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))

		statMu sync.Mutex
		stats  = make(map[string]*AnalyzerStat, len(analyzers))
	)
	for _, a := range analyzers {
		stats[a.Name] = &AnalyzerStat{Name: a.Name}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			wg.Add(1)
			go func(pkg *Package, a *Analyzer) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				pass := &Pass{
					Analyzer: a,
					Pkg:      pkg,
					Fset:     l.Fset,
					loader:   l,
					ip:       ip,
					mu:       &mu,
					out:      &out,
				}
				passStart := time.Now()
				a.Run(pass)
				d := time.Since(passStart)
				statMu.Lock()
				stats[a.Name].Wall += d
				statMu.Unlock()
			}(pkg, a)
		}
	}
	wg.Wait()
	for _, a := range analyzers {
		info.Analyzers = append(info.Analyzers, *stats[a.Name])
	}
	sites, bad := collectSuppressions(l.Fset, pkgs)
	kept := out[:0]
	for _, d := range out {
		if !suppressed(sites, d) {
			kept = append(kept, d)
		}
	}
	out = append(kept, bad...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, info
}
