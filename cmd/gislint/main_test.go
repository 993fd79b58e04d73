package main

import (
	"testing"

	"gis/internal/lint"
)

// TestFilterAnalyzers pins the -only contract, including the
// unknown-name error path.
func TestFilterAnalyzers(t *testing.T) {
	all := lint.All()
	sel, ok := filterAnalyzers(all, "sqlship,goleak")
	if !ok || len(sel) != 2 {
		t.Fatalf("-only sqlship,goleak selected %d analyzers (ok=%v)", len(sel), ok)
	}
	sel, ok = filterAnalyzers(all, "")
	if !ok || len(sel) != len(all) {
		t.Fatalf("no -only kept %d of %d analyzers (ok=%v)", len(sel), len(all), ok)
	}
	if _, ok := filterAnalyzers(all, "nosuch"); ok {
		t.Error("-only with an unknown name must fail")
	}
}
