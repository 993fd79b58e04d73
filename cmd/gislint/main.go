// Command gislint is the repo's custom static-analysis driver. It loads
// and type-checks packages using only the standard library, then runs
// the project-specific analyzers from internal/lint in parallel:
//
//	iterclose    exec/source iterators closed or handed off on every path
//	errdrop      no silently discarded error results
//	valuecompare no raw ==/!= on types.Value or Value-bearing structs
//	exhaustive   switches over plan/expr/kind vocabularies stay complete
//	spanfinish   obs spans reach End on every path out of the starter
//	ctxflow      no context.Background/TODO outside main; contexts flow
//	lockheld     no mutex held across an RPC, channel op, or Wait
//	sqlship      shipped SQL text comes from builders/constants, not assembly
//	goleak       library goroutines carry a cancellation path
//	lockguard    fields a mutex guards at most sites are guarded at all
//	atomicmix    no mixing of sync/atomic and plain access to one field
//	wglifecycle  WaitGroup Add/Done/Wait ordered so Wait cannot miss work
//	chanmisuse   no close/send on a possibly-closed channel; spawned sends guarded
//	lockorder    no lock-order cycles: one global acquisition order for every mutex pair
//	selfdeadlock no re-acquisition of a held non-reentrant mutex (double Lock, upgrade)
//	blockcycle   no parking on a channel/WaitGroup while holding a lock the waker needs
//
// Usage:
//
//	gislint [-only name[,name]] [-skip name[,name]] [-json] [-v] [-stats] [-list]
//	        [-dot lockorder] [packages]
//
// Every finding is a contract violation and fails the run; there is no
// warning level and no baseline, so `gislint ./...` with no flags is the
// gate scripts/check.sh runs.
//
// Packages are directory patterns ("./...", "./internal/exec"); the
// default is ./... from the current directory. Diagnostics print as
// file:line:col (or a JSON array with -json) and any finding makes the
// driver exit 1 (2 on load or type-check failure). Individual findings
// can be waived in source with `//lint:ignore <analyzer> <reason>` — the
// reason is mandatory, and a bare suppression is itself reported.
// Parsing fans out across a bounded worker pool; the wall-time summary
// goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gis/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gislint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := fs.String("skip", "", "comma-separated analyzer names to exclude")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	verbose := fs.Bool("v", false, "report per-analyzer wall time on stderr")
	stats := fs.Bool("stats", false, "report findings per analyzer, call-graph size, guard-model and lock-order census on stderr")
	dotGraph := fs.String("dot", "", "emit a Graphviz DOT graph on stdout and exit; the only supported graph is 'lockorder'")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, ok := filterAnalyzers(analyzers, *only, *skip)
	if !ok {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gislint:", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gislint:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "gislint: no packages matched")
		return 2
	}
	if err := loader.Preparse(dirs, 0); err != nil {
		fmt.Fprintln(os.Stderr, "gislint:", err)
		return 2
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gislint:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	if *dotGraph != "" {
		if *dotGraph != "lockorder" {
			fmt.Fprintf(os.Stderr, "gislint: unknown -dot graph %q (supported: lockorder)\n", *dotGraph)
			return 2
		}
		ip := lint.BuildInterproc(loader)
		if ip.Locks == nil {
			fmt.Fprintln(os.Stderr, "gislint: no lock-order model built")
			return 2
		}
		fmt.Print(ip.Locks.Dot())
		return 0
	}

	diags, info := lint.RunWithInfo(loader, pkgs, analyzers)
	if *asJSON {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "gislint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *verbose || *stats {
		printRunInfo(os.Stderr, info, *verbose, *stats)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gislint: %d finding(s) in %d package(s), %d analyzer(s), %s\n",
			len(diags), len(pkgs), len(analyzers), elapsed)
		return 1
	}
	fmt.Fprintf(os.Stderr, "gislint: clean, %d package(s), %d analyzer(s), %s\n",
		len(pkgs), len(analyzers), elapsed)
	return 0
}

// printRunInfo renders -v (per-analyzer wall time) and -stats (findings
// per analyzer plus the shared call graph's dimensions). Analyzer walls
// are summed over concurrent package passes, so they can exceed — and
// together far exceed — the end-to-end elapsed time.
func printRunInfo(w *os.File, info *lint.RunInfo, verbose, stats bool) {
	for _, s := range info.Analyzers {
		switch {
		case verbose && stats:
			fmt.Fprintf(w, "gislint: %-14s %8s  %d finding(s)\n", s.Name, s.Wall.Round(time.Microsecond), s.Findings)
		case verbose:
			fmt.Fprintf(w, "gislint: %-14s %8s\n", s.Name, s.Wall.Round(time.Microsecond))
		default:
			fmt.Fprintf(w, "gislint: %-14s %d finding(s)\n", s.Name, s.Findings)
		}
	}
	if stats {
		fmt.Fprintf(w, "gislint: call graph: %d function(s), %d resolved edge(s), %d SCC(s), largest SCC %d, built in %s\n",
			info.GraphFuncs, info.GraphEdges, info.GraphSCCs, info.GraphMaxSCC, info.InterprocTime.Round(time.Microsecond))
		fmt.Fprintf(w, "gislint: guard model: %d guardable struct(s), %d data field(s), %d access(es), %d guarded field(s)\n",
			info.GuardStructs, info.GuardFields, info.GuardAccesses, info.GuardedFields)
		fmt.Fprintf(w, "gislint: lock order: %d class(es), %d edge(s), %d SCC(s), %d cycle(s), max witness %d step(s)\n",
			info.LockClasses, info.LockEdges, info.LockSCCs, info.LockCycles, info.LockMaxWitness)
	}
}

// filterAnalyzers applies -only then -skip; unknown names are an error
// so typos cannot silently disable a check.
func filterAnalyzers(all []*lint.Analyzer, only, skip string) ([]*lint.Analyzer, bool) {
	selected := all
	if only != "" {
		byName := nameSet(only)
		selected = nil
		for _, a := range all {
			if byName[a.Name] {
				selected = append(selected, a)
				delete(byName, a.Name)
			}
		}
		if !reportUnknown(byName) {
			return nil, false
		}
	}
	if skip != "" {
		byName := nameSet(skip)
		var kept []*lint.Analyzer
		for _, a := range selected {
			if byName[a.Name] {
				delete(byName, a.Name)
				continue
			}
			kept = append(kept, a)
		}
		if !reportUnknown(byName) {
			return nil, false
		}
		selected = kept
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "gislint: no analyzers selected")
		return nil, false
	}
	return selected, true
}

func nameSet(csv string) map[string]bool {
	set := make(map[string]bool)
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			set[name] = true
		}
	}
	return set
}

func reportUnknown(left map[string]bool) bool {
	for name := range left {
		fmt.Fprintf(os.Stderr, "gislint: unknown analyzer %q\n", name)
		return false
	}
	return true
}

// jsonDiag is the stable machine-readable diagnostic shape.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w *os.File, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
