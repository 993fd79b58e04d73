package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"gis/internal/workload"
)

// tinyScale keeps experiment smoke tests fast.
func tinyScale() Scale {
	return Scale{
		Rows: 0.02,
		Reps: 1,
		Link: workload.Link{Latency: 200 * time.Microsecond},
	}
}

// runExperiment checks basic table integrity.
func runExperiment(t *testing.T, id string, minRows int) *Table {
	t.Helper()
	tab, err := ByID(context.Background(), id, tinyScale())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Errorf("table id = %s", tab.ID)
	}
	if len(tab.Rows) < minRows {
		t.Errorf("%s produced %d rows, want >= %d", id, len(tab.Rows), minRows)
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Errorf("%s row width %d != header %d", id, len(r), len(tab.Header))
		}
	}
	out := tab.String()
	if !strings.Contains(out, tab.Title) {
		t.Errorf("%s render missing title", id)
	}
	return tab
}

func TestT1(t *testing.T) {
	tab := runExperiment(t, "T1", 5)
	// Shape check: at the most selective point, pushdown must win.
	if !strings.HasSuffix(tab.Rows[0][3], "x") {
		t.Errorf("speedup cell = %q", tab.Rows[0][3])
	}
}

func TestT2(t *testing.T) { runExperiment(t, "T2", 3) }

func TestF3(t *testing.T) {
	tab := runExperiment(t, "F3", 8)
	// DP is exhaustive: its plan costs no more than greedy's on any row.
	for _, r := range tab.Rows {
		dp, err1 := strconv.ParseFloat(r[1], 64)
		greedy, err2 := strconv.ParseFloat(r[2], 64)
		if err1 != nil || err2 != nil || dp > greedy {
			t.Errorf("%s relations: dp_cost %s, greedy_cost %s; want two numbers, DP <= greedy", r[0], r[1], r[2])
		}
	}
}

func TestT4(t *testing.T) { runExperiment(t, "T4", 5) }
func TestF5(t *testing.T) { runExperiment(t, "F5", 3) }
func TestT6(t *testing.T) { runExperiment(t, "T6", 4) }
func TestF7(t *testing.T) { runExperiment(t, "F7", 7) }
func TestT8(t *testing.T) { runExperiment(t, "T8", 4) }
func TestF9(t *testing.T) { runExperiment(t, "F9", 7) }

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID(context.Background(), "T99", tinyScale()); err == nil {
		t.Error("unknown experiment id must error")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	tabs, err := All(context.Background(), tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 9 {
		t.Errorf("All returned %d tables", len(tabs))
	}
}
