package core

import (
	"context"
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"gis/internal/admission"
	"gis/internal/obs"
	"gis/internal/resilience"
)

// The notation of a signal table cell: names in backticks, <x> for one
// name segment, {a,b} for either.
var (
	tabledName  = regexp.MustCompile("`[^`]+`")
	nameSegment = regexp.MustCompile(`<[^>]+>`)
	nameChoice  = regexp.MustCompile(`\\\{([^}]+)\\\}`)
)

// signalTable reads the name → reader table of DESIGN.md
// "Observability": the rows after the "| Signal |" header, each one's
// first cell a list of backticked names in which <x> stands for one
// name segment, {a,b} for either and a trailing .* for any suffix.
func signalTable(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(design), "\n| Signal |")
	if !ok {
		t.Fatal(`DESIGN.md has no "| Signal |" table`)
	}
	rows := map[string]*regexp.Regexp{}
	for _, line := range strings.Split(after, "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, name := range tabledName.FindAllString(cell, -1) {
			name = strings.Trim(name, "`")
			p := regexp.QuoteMeta(name)
			p = nameSegment.ReplaceAllString(p, `[^.]+`)
			p = nameChoice.ReplaceAllStringFunc(p, func(alt string) string {
				return "(" + strings.ReplaceAll(strings.Trim(alt, `\{}`), ",", "|") + ")"
			})
			if stem, ok := strings.CutSuffix(p, `\.\*`); ok {
				p = stem + `\..+`
			}
			rows[name] = regexp.MustCompile("^" + p + "$")
		}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md's signal table has no rows")
	}
	return rows
}

// untabled returns the names no row of the table matches, and the rows
// that match no name.
func untabled(names []string, table map[string]*regexp.Regexp) (orphans, stale []string) {
	used := map[string]bool{}
	for _, n := range names {
		matched := false
		for row, re := range table {
			if re.MatchString(n) {
				matched, used[row] = true, true
			}
		}
		if !matched {
			orphans = append(orphans, n)
		}
	}
	for row := range table {
		if !used[row] {
			stale = append(stale, row)
		}
	}
	slices.Sort(orphans)
	slices.Sort(stale)
	return orphans, stale
}

// TestEverySignalHasAReader: every name in the process-wide registry —
// after a federated SELECT over two wire links, a two-participant
// UPDATE, a shed statement and a breaker, and after whatever the tests
// before this one registered — has a row in DESIGN.md's table, which
// names who reads it; and every row names a signal that exists. A new
// counter fails here until its reader is written down.
func TestEverySignalHasAReader(t *testing.T) {
	table := signalTable(t)
	e := traceFederation(t, "sigA", "sigB")
	e.SetAdmission(admission.New(admission.Config{MaxInFlight: 4}))
	if res := query(t, e, "SELECT c.name, SUM(o.amount) FROM cust c JOIN ord o ON c.id = o.cust_id GROUP BY c.name"); len(res.Rows) != 2 {
		t.Fatalf("join returned %d rows", len(res.Rows))
	}
	if n, err := e.Exec(ctx, "UPDATE acct SET balance = balance + 1 WHERE id = 1 OR id = 101"); err != nil || n != 2 {
		t.Fatalf("cross-site update = %d, %v", n, err)
	}
	late, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Query(late, "SELECT 1"); !errors.Is(err, admission.ErrOverload) {
		t.Fatalf("a statement past its deadline = %v, want shed", err)
	}
	resilience.NewTracker(&resilience.Policy{BreakerThreshold: 1}).For("sigA")

	snap := obs.Default().Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	orphans, stale := untabled(names, table)
	for _, n := range orphans {
		t.Errorf("signal %s is registered and DESIGN.md's signal table has no row for it: name its reader there, or delete it", n)
	}
	for _, row := range stale {
		t.Errorf("DESIGN.md's signal table has a row %s and nothing registers such a signal", row)
	}
	// The check itself: a name nobody tabled is reported.
	if orphans, _ := untabled(append(names, "exec.rows_nobody_reads"), table); !slices.Contains(orphans, "exec.rows_nobody_reads") {
		t.Error("an untabled signal went unreported")
	}
}
