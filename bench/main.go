// Command bench is the repository's benchmark (BENCHMARK.json): five
// federation workloads driven through the public core.Engine API by one
// closed-loop client, every answer checked, with the end-to-end metrics
// from an untraced run and the per-layer metrics from a traced one. See
// README.md in this directory.
//
//	go run ./bench -workload point_remote -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload point_remote -seed 1 -seconds 10 -trace 1
//	go run ./bench -seed 1 -out a.jsonl          # all five workloads, results appended to a.jsonl
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated tables and statements")
		seconds = flag.Int("seconds", defaultSeconds, "nominal length of the measured window; sizes the fixed statement counts")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "", "append each run's result to this file as one JSON line (input of -compare)")
		outDir  = flag.String("out-dir", "bench/out", "directory the traced run writes trace-<workload>.json to")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1, -trace 0 or 1")
		os.Exit(2)
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w, ok := workloadByName(*name); ok {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// The component servers share the process with the mediator and the
	// machine has two cores: one client is the load they carry without
	// the scheduler becoming the thing measured.
	runtime.GOMAXPROCS(2)

	ok := true
	for _, w := range todo {
		c := runConfig{w: w, seed: *seed, seconds: *seconds, z: 1, outDir: *outDir}
		var report strings.Builder
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(context.Background(), c, &report)
		} else {
			res, err = runEndToEnd(context.Background(), c, &report)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Print(report.String())
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendRun(*out, runRecord{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Result: res}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		// The result object is the last line of a run's output.
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
