package main

import (
	"testing"

	"gis/internal/lint"
)

// TestFilterAnalyzers pins the -only/-skip contract, including the
// unknown-name error path.
func TestFilterAnalyzers(t *testing.T) {
	all := lint.All()
	sel, ok := filterAnalyzers(all, "sqlship,goleak", "")
	if !ok || len(sel) != 2 {
		t.Fatalf("-only sqlship,goleak selected %d analyzers (ok=%v)", len(sel), ok)
	}
	sel, ok = filterAnalyzers(all, "", "sqlship")
	if !ok || len(sel) != len(all)-1 {
		t.Fatalf("-skip sqlship kept %d analyzers (ok=%v)", len(sel), ok)
	}
	if _, ok := filterAnalyzers(all, "nosuch", ""); ok {
		t.Error("-only with an unknown name must fail")
	}
}
