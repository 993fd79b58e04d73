package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runRecord is one line of an -out file: a run's inputs and result.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRun(path string, r runRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// sideRuns is the untraced runs of one -out file.
type sideRuns struct {
	seconds int                             // the -seconds every run was made with
	values  map[string]map[string][]float64 // workload → metric → one value per run
}

// readRuns loads the untraced runs of an -out file. A comparison over
// runs that failed their correctness check, or that were sized with
// different -seconds (so executed different statement counts), would
// judge numbers that do not measure the same thing: both are errors.
func readRuns(path string) (sideRuns, error) {
	out := sideRuns{values: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return out, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace != 0 {
			continue
		}
		if _, ok := workloadByName(r.Workload); !ok {
			return out, fmt.Errorf("%s:%d: unknown workload %q", path, n, r.Workload)
		}
		if !r.Result.Correct || r.Result.Failed != 0 {
			return out, fmt.Errorf("%s:%d: the run of %s with seed %d failed its correctness check (%d of %d statements)",
				path, n, r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
		}
		if out.seconds == 0 {
			out.seconds = r.Seconds
		} else if r.Seconds != out.seconds {
			return out, fmt.Errorf("%s:%d: run made with -seconds %d among runs made with -seconds %d", path, n, r.Seconds, out.seconds)
		}
		if out.values[r.Workload] == nil {
			out.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out.values[r.Workload][name] = append(out.values[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges side b of one workload × metric against side a, by
// the rule the benchmark's own repeatability is held to: b's median may
// not be worse than a's by more than the bound; where either side's
// quartile spread is wider than the bound the comparison cannot tell
// and says so, unless every run of b beats every run of a.
func verdict(d metricDef, a, b []float64) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := (bm - am) / am // positive = b worse, for "lower is better"
	if d.Better == "higher" {
		worse = (am - bm) / am
	}
	if worse > d.Bound {
		return "regressed"
	}
	if (aq3-aq1)/am > d.Bound || (bq3-bq1)/bm > d.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// compareFiles prints, per workload × end-to-end metric, both sides'
// medians and quartiles, the relative change and the verdict. It
// reports whether anything regressed. Two files that cannot be compared
// — a failed run in either, different -seconds, a workload or a metric
// that only one side has — are an error, not a shorter table.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	if a.seconds != b.seconds {
		return false, fmt.Errorf("%s was made with -seconds %d, %s with -seconds %d", pathA, a.seconds, pathB, b.seconds)
	}
	for _, wl := range workloads {
		_, inA := a.values[wl.name]
		_, inB := b.values[wl.name]
		if inA != inB {
			return false, fmt.Errorf("workload %s has runs in only one of %s and %s", wl.name, pathA, pathB)
		}
		for _, d := range endToEnd {
			if inA && (len(a.values[wl.name][d.Name]) == 0 || len(b.values[wl.name][d.Name]) == 0) {
				return false, fmt.Errorf("workload %s: metric %s is missing from %s or %s", wl.name, d.Name, pathA, pathB)
			}
		}
	}
	fmt.Fprintf(w, "%-13s %-20s %30s %30s %8s  %s\n", "workload", "metric", "a: median [q1 .. q3] n", "b: median [q1 .. q3] n", "change", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values[wl.name][d.Name], b.values[wl.name][d.Name]
			if len(xa) == 0 {
				continue // neither side ran this workload
			}
			v := verdict(d, xa, xb)
			regressed = regressed || v == "regressed"
			aq1, am, aq3 := quartiles(xa)
			bq1, bm, bq3 := quartiles(xb)
			fmt.Fprintf(w, "%-13s %-20s %12.4f [%.4g .. %.4g] %d %12.4f [%.4g .. %.4g] %d %+7.1f%%  %s\n",
				wl.name, d.Name, am, aq1, aq3, len(xa), bm, bq1, bq3, len(xb), 100*(bm-am)/am, v)
		}
	}
	return regressed, nil
}
