// Command gisbench regenerates the evaluation tables and figures: it
// builds each experiment's synthetic federation, runs the parameter
// sweep, and prints the rows EXPERIMENTS.md records.
//
// Usage:
//
//	gisbench                 # run every experiment at full scale
//	gisbench -exp T1,F7      # run selected experiments
//	gisbench -scale 0.1      # shrink workloads 10x (quick runs)
//	gisbench -latency 5ms    # simulated WAN latency per frame
//	gisbench -reps 5         # median-of-N timing
//	gisbench -json           # one experiments.Record JSON object per line
//	gisbench -quick          # smoke configuration: tiny scale, 1 rep, T1+F3
//	gisbench -overload       # admission-control stress (OV1): admitted/shed/p50/p99
//	gisbench -tenants 16     # concurrent tenant clients for -overload
//
// With -json each experiment emits one experiments.Record object on
// stdout (schema documented in EXPERIMENTS.md) and the banner moves to
// stderr, so the stream can be piped straight into a validator or
// appended to a results log.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gis/internal/experiments"
)

func main() {
	var (
		expList = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		scale   = flag.Float64("scale", 1.0, "workload size multiplier")
		latency = flag.Duration("latency", 2*time.Millisecond, "simulated link latency")
		bwMB    = flag.Int64("bw", 50, "simulated link bandwidth (MiB/s)")
		reps    = flag.Int("reps", 3, "repetitions per measurement (median)")
		asJSON  = flag.Bool("json", false, "emit one JSON record per experiment instead of tables")
		quick   = flag.Bool("quick", false, "smoke run: scale 0.02, 1 rep, experiments T1,F3 unless -exp is set")

		overload = flag.Bool("overload", false, "run the OV1 overload experiment (admission shed + latency percentiles)")
		tenants  = flag.Int("tenants", 8, "concurrent tenant clients for -overload")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	sc.Rows = *scale
	sc.Reps = *reps
	sc.Link.Latency = *latency
	sc.Link.BytesPerSec = *bwMB << 20
	sc.Tenants = *tenants

	var ids []string
	if *quick {
		sc.Rows = 0.02
		sc.Reps = 1
		sc.Link.Latency = 100 * time.Microsecond
		ids = []string{"T1", "F3"}
	}
	if *overload {
		ids = []string{"OV1"}
	}
	if *expList != "" {
		ids = strings.Split(*expList, ",")
	} else if !*quick && !*overload {
		ids = experiments.IDs()
	}

	// The banner yields stdout to the JSON stream under -json.
	banner := os.Stdout
	if *asJSON {
		banner = os.Stderr
	}
	enc := json.NewEncoder(os.Stdout)

	start := time.Now()
	fmt.Fprintf(banner, "gisbench: scale=%.2f link=%v/%dMiBps reps=%d\n\n", sc.Rows, sc.Link.Latency, sc.Link.BytesPerSec>>20, sc.Reps)
	failed := false
	for _, id := range ids {
		expStart := time.Now()
		tab, err := experiments.ByID(context.Background(), strings.TrimSpace(id), sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed = true
			continue
		}
		if *asJSON {
			if err := enc.Encode(tab.Record(sc, time.Since(expStart), time.Now())); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: encode: %v\n", id, err)
				failed = true
			}
			continue
		}
		fmt.Println(tab)
	}
	fmt.Fprintf(banner, "total: %v\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}
