package workload

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// analyzed matches an operator line of EXPLAIN ANALYZE: its indent, its
// kind and, where the planner made one, its estimate beside the rows
// the operator produced.
var analyzed = regexp.MustCompile(`^( *)(\w+) (?:.*\(rows=(\d+) est=(\d+) )?`)

// renderEstimates runs the plan corpus under EXPLAIN ANALYZE with the
// default options and summarises, per operator kind, how far each
// estimate is from the rows the operator produced: the q-error
// max((est+1)/(act+1), (act+1)/(est+1)), 1 when exact, as p50, p90 and
// max (nearest rank). A statement that fails to run is listed by name.
func renderEstimates(t *testing.T) string {
	fixtures := testFixtures(t)
	qerrs := map[string][]float64{}
	var failed []string
	for _, c := range planCorpus() {
		f := fixtures[c.fixture]
		setVariant(f, planVariants[0])
		out, err := f.Engine.ExplainAnalyze(ctx, c.sql, c.params...)
		if err != nil {
			failed = append(failed, fmt.Sprintf("# does not run: %s [%s]: %v\n", c.name, c.fixture, err))
			continue
		}
		// An operator below a LIMIT is read only as far as the limit
		// needs, and how far that is depends on when the union's
		// goroutine is told to stop: its rows say nothing of its estimate.
		limitDepth := -1
		for _, line := range strings.Split(out, "\n") {
			m := analyzed.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			depth := len(m[1])
			if limitDepth >= 0 && depth <= limitDepth {
				limitDepth = -1
			}
			if limitDepth < 0 && m[2] == "Limit" {
				limitDepth = depth
			}
			if limitDepth >= 0 || m[3] == "" {
				continue
			}
			act, _ := strconv.ParseFloat(m[3], 64)
			est, _ := strconv.ParseFloat(m[4], 64)
			qerrs[m[2]] = append(qerrs[m[2]], math.Max((est+1)/(act+1), (act+1)/(est+1)))
		}
	}
	var b strings.Builder
	b.WriteString("# q-error = max((est+1)/(act+1), (act+1)/(est+1)) of each operator of\n")
	b.WriteString("# plans.golden's statements under EXPLAIN ANALYZE, default options,\n# operators below a LIMIT left out\n")
	fmt.Fprintf(&b, "%-10s %5s %9s %9s %9s\n", "operator", "n", "p50", "p90", "max")
	kinds := make([]string, 0, len(qerrs))
	for k := range qerrs {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		q := qerrs[k]
		slices.Sort(q)
		rank := func(p float64) float64 { return q[int(math.Ceil(p*float64(len(q))))-1] }
		fmt.Fprintf(&b, "%-10s %5d %9.3f %9.3f %9.3f\n", k, len(q), rank(0.5), rank(0.9), q[len(q)-1])
	}
	for _, f := range failed {
		b.WriteString(f)
	}
	return b.String()
}

// TestEstimatesGolden pins the planner's estimate error over the plan
// corpus to testdata/estimates.golden. The fixtures are seeded and the
// estimates deterministic, so the file is exact: a change to the
// estimator regenerates it with
// `go test ./internal/workload -run TestEstimatesGolden -update`, and
// its diff is the change's effect on the error.
func TestEstimatesGolden(t *testing.T) {
	matchGolden(t, "testdata/estimates.golden", renderEstimates(t))
}
