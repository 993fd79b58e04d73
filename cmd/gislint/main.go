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
//	lockorder    no lock-order cycles: one global acquisition order for every mutex pair
//
// Usage:
//
//	gislint [-only name[,name]] [-v] [-list] [packages]
//
// Every finding is a contract violation and fails the run; there is no
// warning level and no baseline, so `gislint ./...` with no flags is the
// gate scripts/check.sh runs.
//
// Packages are directory patterns ("./...", "./internal/exec"); the
// default is ./... from the current directory. Diagnostics print as
// file:line:col and any finding makes the driver exit 1 (2 on load or
// type-check failure). Individual findings can be waived in source with
// `//lint:ignore <analyzer> <reason>` — the reason is mandatory, and a
// bare suppression is itself reported.
// Parsing fans out across a bounded worker pool; the wall-time summary
// goes to stderr.
package main

import (
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
	verbose := fs.Bool("v", false, "report per-analyzer wall time on stderr")
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
	analyzers, ok := filterAnalyzers(analyzers, *only)
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

	diags, info := lint.RunWithInfo(loader, pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if *verbose {
		// Analyzer walls are summed over concurrent package passes, so they
		// can exceed — and together far exceed — the elapsed time below.
		for _, s := range info.Analyzers {
			fmt.Fprintf(os.Stderr, "gislint: %-14s %8s\n", s.Name, s.Wall.Round(time.Microsecond))
		}
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

// filterAnalyzers applies -only; unknown names are an error so typos
// cannot silently disable a check.
func filterAnalyzers(all []*lint.Analyzer, only string) ([]*lint.Analyzer, bool) {
	if only == "" {
		return all, true
	}
	byName := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			byName[name] = true
		}
	}
	var selected []*lint.Analyzer
	for _, a := range all {
		if byName[a.Name] {
			selected = append(selected, a)
			delete(byName, a.Name)
		}
	}
	for name := range byName {
		fmt.Fprintf(os.Stderr, "gislint: unknown analyzer %q\n", name)
		return nil, false
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "gislint: no analyzers selected")
		return nil, false
	}
	return selected, true
}
