package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body and builds its CFG. BuildCFG needs no
// type information, so a bare parse suffices.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return BuildCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// reachable returns the set of blocks reachable from Entry.
func reachable(g *CFG) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

// blockCalling finds the block containing a call to the named function.
func blockCalling(t *testing.T, g *CFG, name string) *Block {
	t.Helper()
	for _, bl := range g.Blocks {
		for _, n := range bl.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return !found
			})
			if found {
				return bl
			}
		}
	}
	t.Fatalf("no block calls %s", name)
	return nil
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestCFGIfElse(t *testing.T) {
	g := buildCFG(t, "if c() {\na()\n} else {\nb()\n}\nd()")
	head := blockCalling(t, g, "c")
	if head.Cond == nil || head.TrueTo == nil || head.FalseTo == nil {
		t.Fatal("if head is missing branch info")
	}
	if head.TrueTo == head.FalseTo {
		t.Fatal("then and else share a block")
	}
	if head.TrueTo != blockCalling(t, g, "a") || head.FalseTo != blockCalling(t, g, "b") {
		t.Fatal("branch targets do not match the arms")
	}
	join := blockCalling(t, g, "d")
	if !hasEdge(head.TrueTo, join) || !hasEdge(head.FalseTo, join) {
		t.Fatal("arms do not meet at the join")
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfNoElse(t *testing.T) {
	g := buildCFG(t, "if c() {\na()\n}\nd()")
	head := blockCalling(t, g, "c")
	join := blockCalling(t, g, "d")
	if head.FalseTo != join {
		t.Fatal("false edge of an else-less if must go to the join")
	}
	if head.TrueTo != blockCalling(t, g, "a") {
		t.Fatal("true edge must enter the body")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := buildCFG(t, "for i := 0; c(); i++ {\na()\n}\nd()")
	head := blockCalling(t, g, "c")
	if head.Cond == nil {
		t.Fatal("loop head has no condition")
	}
	body := blockCalling(t, g, "a")
	if head.TrueTo != body {
		t.Fatal("true edge must enter the loop body")
	}
	// Body flows to the post statement, which loops back to the head.
	r := reachable(g)
	if !r[body] || !r[blockCalling(t, g, "d")] {
		t.Fatal("body or loop exit unreachable")
	}
	back := false
	for _, s := range body.Succs {
		if hasEdge(s, head) || s == head {
			back = true
		}
	}
	if !back {
		t.Fatal("no back edge from body to head")
	}
}

func TestCFGInfiniteFor(t *testing.T) {
	g := buildCFG(t, "for {\na()\n}")
	if reachable(g)[g.Exit] {
		t.Fatal("exit must be unreachable past an infinite loop")
	}
}

func TestCFGForBreakContinue(t *testing.T) {
	g := buildCFG(t, "for {\nif c() {\nbreak\n}\ncontinue\n}\nd()")
	if !reachable(g)[blockCalling(t, g, "d")] {
		t.Fatal("break must reach the statement after the loop")
	}
}

func TestCFGRange(t *testing.T) {
	g := buildCFG(t, "for range xs() {\na()\n}\nd()")
	body := blockCalling(t, g, "a")
	r := reachable(g)
	if !r[body] || !r[blockCalling(t, g, "d")] {
		t.Fatal("range body or exit unreachable")
	}
	if len(body.Succs) != 1 {
		t.Fatalf("range body has %d successors, want 1 (back to head)", len(body.Succs))
	}
	head := body.Succs[0]
	if !hasEdge(head, body) {
		t.Fatal("range head must loop back into the body")
	}
}

// exitPredsWithoutReturn counts reachable Exit predecessors that do not
// end in a return — i.e. fall-off-the-end paths.
func exitPredsWithoutReturn(g *CFG) int {
	r := reachable(g)
	n := 0
	for _, p := range g.Exit.Preds {
		if !r[p] {
			continue
		}
		hasReturn := false
		for _, nd := range p.Nodes {
			if _, ok := nd.(*ast.ReturnStmt); ok {
				hasReturn = true
			}
		}
		if !hasReturn {
			n++
		}
	}
	return n
}

func TestCFGSwitchDefault(t *testing.T) {
	// Without default the tag can match nothing: a fall-through path to
	// Exit must exist.
	g := buildCFG(t, "switch x() {\ncase 1:\nreturn\n}")
	if exitPredsWithoutReturn(g) == 0 {
		t.Fatal("switch without default must fall through to the join")
	}
	// With a default and every arm returning, no fall-through remains.
	g = buildCFG(t, "switch x() {\ncase 1:\nreturn\ndefault:\nreturn\n}")
	if exitPredsWithoutReturn(g) != 0 {
		t.Fatal("switch with default and returning arms must not fall through")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := buildCFG(t, "switch x() {\ncase 1:\na()\nfallthrough\ncase 2:\nb()\n}")
	if !hasEdge(blockCalling(t, g, "a"), blockCalling(t, g, "b")) {
		t.Fatal("fallthrough must link consecutive case bodies")
	}
}

func TestCFGSelect(t *testing.T) {
	// A select without default blocks until a case proceeds: the head has
	// exactly one successor per case, no join edge.
	g := buildCFG(t, "ch := mk()\nselect {\ncase <-ch:\na()\ncase ch <- 1:\nb()\n}\nd()")
	head := blockCalling(t, g, "mk")
	if len(head.Succs) != 2 {
		t.Fatalf("select head has %d successors, want 2 (one per case)", len(head.Succs))
	}
	r := reachable(g)
	if !r[blockCalling(t, g, "a")] || !r[blockCalling(t, g, "b")] || !r[blockCalling(t, g, "d")] {
		t.Fatal("select arms or continuation unreachable")
	}
}

func TestCFGGoto(t *testing.T) {
	g := buildCFG(t, "goto L\na()\nL:\nb()")
	r := reachable(g)
	if r[blockCalling(t, g, "a")] {
		t.Fatal("statement jumped over by goto must be unreachable")
	}
	if !r[blockCalling(t, g, "b")] {
		t.Fatal("goto target must be reachable")
	}
}

func TestCFGGotoBackward(t *testing.T) {
	g := buildCFG(t, "L:\na()\nif c() {\ngoto L\n}\nd()")
	a := blockCalling(t, g, "a")
	head := blockCalling(t, g, "c")
	r := reachable(g)
	if !r[a] || !r[head] || !r[blockCalling(t, g, "d")] {
		t.Fatal("backward-goto loop blocks unreachable")
	}
	if head.TrueTo == nil {
		t.Fatal("goto guard lost its branch info")
	}
}

func TestCFGDefer(t *testing.T) {
	// Defer is modeled at its registration point: it is an ordinary node
	// in the block where the defer statement executes.
	g := buildCFG(t, "defer f()\na()")
	if len(g.Entry.Nodes) == 0 {
		t.Fatal("entry block empty")
	}
	if _, ok := g.Entry.Nodes[0].(*ast.DeferStmt); !ok {
		t.Fatalf("entry first node is %T, want *ast.DeferStmt", g.Entry.Nodes[0])
	}
}

func TestCFGPanic(t *testing.T) {
	g := buildCFG(t, "if c() {\npanic(\"boom\")\n}\na()")
	pb := blockCalling(t, g, "panic")
	if len(pb.Succs) != 0 {
		t.Fatal("panic block must have no successors")
	}
	if !reachable(g)[blockCalling(t, g, "a")] {
		t.Fatal("code after the guarded panic must stay reachable")
	}
}

func TestCFGReturn(t *testing.T) {
	g := buildCFG(t, "a()\nreturn")
	if !hasEdge(blockCalling(t, g, "a"), g.Exit) {
		t.Fatal("return must edge to Exit")
	}
	if got := len(g.Exit.Succs); got != 0 {
		t.Fatalf("Exit has %d successors, want 0", got)
	}
}

// TestSuppressions pins the driver-level //lint:ignore contract against
// the suppress fixture: reasoned suppressions silence their analyzer,
// bare ones become findings, mismatched names do not suppress, and an
// unknown analyzer name is accepted (bench/decorate.go keeps a waiver
// for the retired hotalloc) without suppressing anything.
func TestSuppressions(t *testing.T) {
	dir := "testdata/fixture/suppress"
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l, []*Package{pkg}, []*Analyzer{analyzerByName(t, "ctxflow")})
	var nSuppress, nCtxflow int
	for _, d := range diags {
		switch d.Analyzer {
		case "suppress":
			nSuppress++
			if !strings.Contains(d.Message, "bare suppressions are rejected") {
				t.Errorf("unexpected suppress message: %s", d)
			}
		case "ctxflow":
			nCtxflow++
		default:
			t.Errorf("unexpected analyzer in %s", d)
		}
	}
	if nSuppress != 1 {
		t.Errorf("got %d bare-suppression findings, want 1", nSuppress)
	}
	// bare(), wrongAnalyzer() and unknownAnalyzer() each leak one ctxflow
	// finding; covered, sameLine and multi are silenced.
	if nCtxflow != 3 {
		t.Errorf("got %d surviving ctxflow findings, want 3: %v", nCtxflow, diags)
	}
}
