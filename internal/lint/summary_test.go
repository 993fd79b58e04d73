package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadFixture type-checks one fixture package and builds the
// interprocedural layer over it plus its module dependencies.
func loadFixture(t *testing.T, name string) (*Package, *Interproc) {
	t.Helper()
	dir := filepath.Join("testdata", "fixture", name)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, BuildInterproc(l)
}

// fixtureFunc resolves a top-level function of the fixture package.
func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %q", name)
	}
	return fn
}

// TestSummarySCCTermination is the termination/convergence gate for the
// bottom-up fixpoint: mutual recursion must neither hang nor invent
// facts, and facts present anywhere in a cycle must reach every member.
func TestSummarySCCTermination(t *testing.T) {
	pkg, ip := loadFixture(t, "scc")

	// ping↔pong: the wire round-trip in pong smears over the 2-cycle.
	for _, name := range []string{"ping", "pong"} {
		s := ip.SummaryFor(fixtureFunc(t, pkg, name))
		if s == nil {
			t.Fatalf("%s: no summary computed", name)
		}
		if !s.DoesWireIO {
			t.Errorf("%s: DoesWireIO = false, want true (cycle member re-enters the wire)", name)
		}
	}

	// red→green→blue→red: one consult marks the whole 3-cycle.
	for _, name := range []string{"red", "green", "blue"} {
		s := ip.SummaryFor(fixtureFunc(t, pkg, name))
		if s == nil {
			t.Fatalf("%s: no summary computed", name)
		}
		if !s.ConsultsCtx {
			t.Errorf("%s: ConsultsCtx = false, want true (cycle member consults ctx.Err)", name)
		}
	}

	// selfLoop: direct recursion terminates with a clean summary.
	s := ip.SummaryFor(fixtureFunc(t, pkg, "selfLoop"))
	if s == nil {
		t.Fatal("selfLoop: no summary computed")
	}
	if s.DoesWireIO || s.ConsultsCtx {
		t.Errorf("selfLoop: summary has spurious facts: %+v", *s)
	}

	maxSCC := 0
	for _, comp := range ip.Graph.SCCs() {
		maxSCC = max(maxSCC, len(comp))
	}
	if maxSCC < 3 {
		t.Errorf("largest SCC = %d, want >= 3 (red/green/blue share a component)", maxSCC)
	}
}

// TestCallGraphResolution pins the resolution modes the analyzers rely
// on: package-local calls resolve to their bodies, and the SCC
// decomposition is a partition of the node set.
func TestCallGraphResolution(t *testing.T) {
	pkg, ip := loadFixture(t, "scc")
	g := ip.Graph

	ping := g.NodeOf(fixtureFunc(t, pkg, "ping"))
	pong := g.NodeOf(fixtureFunc(t, pkg, "pong"))
	if ping == nil || pong == nil {
		t.Fatal("fixture functions missing from call graph")
	}
	found := false
	for _, site := range ping.Sites {
		for _, tgt := range site.Targets {
			if tgt == pong {
				found = true
			}
		}
	}
	if !found {
		t.Error("ping's call to pong did not resolve to pong's node")
	}

	seen := make(map[*FuncNode]bool)
	for _, comp := range g.SCCs() {
		if len(comp) == 0 {
			t.Fatal("empty SCC component")
		}
		for _, n := range comp {
			if seen[n] {
				t.Fatalf("node %s appears in two SCCs", n.Name)
			}
			seen[n] = true
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Errorf("SCC partition covers %d of %d nodes", len(seen), len(g.Nodes))
	}
}

// TestSummaryParamFates pins the ownership lattice the rebased span and
// iterator analyzers consult: a reader keeps the obligation with the
// caller, an ender/closer takes it.
func TestSummaryParamFates(t *testing.T) {
	pkg, ip := loadFixture(t, "spanfinish")

	reads := ip.SummaryFor(fixtureFunc(t, pkg, "annotate"))
	if reads == nil || reads.SpanFate[0] != FateReads {
		t.Errorf("annotate: span param fate = %v, want FateReads", fate(reads, true))
	}
	ends := ip.SummaryFor(fixtureFunc(t, pkg, "finish"))
	if ends == nil || ends.SpanFate[0] != FateEnds {
		t.Errorf("finish: span param fate = %v, want FateEnds", fate(ends, true))
	}

	ipkg, iip := loadFixture(t, "iterclose")
	drain := iip.SummaryFor(fixtureFunc(t, ipkg, "drainOnce"))
	if drain == nil || drain.IterFate[0] != FateReads {
		t.Errorf("drainOnce: iter param fate = %v, want FateReads", fate(drain, false))
	}
	closer := iip.SummaryFor(fixtureFunc(t, ipkg, "shutdown"))
	if closer == nil || closer.IterFate[0] != FateEnds {
		t.Errorf("shutdown: iter param fate = %v, want FateEnds", fate(closer, false))
	}
}

func fate(s *Summary, span bool) any {
	if s == nil {
		return "<no summary>"
	}
	if span {
		return s.SpanFate[0]
	}
	return s.IterFate[0]
}
