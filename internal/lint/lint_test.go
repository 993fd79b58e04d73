package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expected diagnostic, parsed from a `// want "..."` comment
// in a fixture file.
type want struct {
	file    string // base name
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`// want (.+)$`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

// parseWants scans every .go file in dir for want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			qs := quotedRE.FindAllStringSubmatch(m[1], -1)
			if len(qs) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted pattern)", e.Name(), i+1)
			}
			for _, q := range qs {
				wants = append(wants, &want{file: e.Name(), line: i + 1, substr: q[1]})
			}
		}
	}
	return wants
}

// analyzerByName fetches one analyzer from the suite.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runFixture loads testdata/fixture/<name> and runs the analyzer of the
// same name over it.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "fixture", name)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return Run(l, []*Package{pkg}, []*Analyzer{analyzerByName(t, name)})
}

// TestFixtures checks every analyzer in All() against the fixture
// package of the same name (an analyzer without one fails here): each
// want comment must be matched by exactly one diagnostic on its line,
// and no diagnostic may appear on an unmarked line.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "fixture", name)
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", name)
			}
			diags := runFixture(t, name)
			for _, d := range diags {
				if d.Analyzer != name {
					t.Errorf("unexpected analyzer %q in diagnostic %s", d.Analyzer, d)
				}
				if !claim(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic: %s:%d wants %q", w.file, w.line, w.substr)
				}
			}
		})
	}
}

// claim marks the first unmatched want satisfied by d.
func claim(wants []*want, d Diagnostic) bool {
	base := filepath.Base(d.Pos.Filename)
	for _, w := range wants {
		if w.matched || w.file != base || w.line != d.Pos.Line {
			continue
		}
		if strings.Contains(d.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestFixturesFailUnderFullSuite mirrors the driver's contract: running
// the whole analyzer suite over the fixtures must produce findings (the
// driver would exit nonzero).
func TestFixturesFailUnderFullSuite(t *testing.T) {
	l, err := NewLoader("testdata/fixture/iterclose")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, a := range All() {
		pkg, err := l.LoadDir(filepath.Join("testdata", "fixture", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(l, pkgs, All())
	if len(diags) == 0 {
		t.Fatal("full suite over fixtures produced no findings")
	}
}

// TestRepoClean is the acceptance gate in test form: every analyzer
// over the whole module must be silent, exactly as `gislint ./...`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand([]string{l.ModuleRoot + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			t.Fatalf("loading %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	diags := Run(l, pkgs, All())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	if t.Failed() {
		fmt.Println("repo is not gislint-clean")
	}
}

// TestExpandSkipsTestdata guards the driver's pattern expansion: the
// fixtures must never be swept into a ./... run.
func TestExpandSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 {
		t.Fatalf("plain dir pattern expanded to %d dirs", len(dirs))
	}
	dirs, err = l.Expand([]string{l.ModuleRoot + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand leaked a testdata dir: %s", d)
		}
	}
}

// TestDiagnosticString pins the canonical rendering.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "errdrop", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: boom [errdrop]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
