package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses one function body from source.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// reachableCount returns how many blocks are reachable from entry.
func reachableCount(g *Graph) int {
	n := 0
	for range g.Reachable() {
		n++
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g := New(parseBody(t, "x := 1\n_ = x"))
	if !g.Reachable()[g.Exit] {
		t.Fatalf("exit unreachable in straight-line code")
	}
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry leaves = %d, want 2", len(g.Entry.Nodes))
	}
}

func TestIfElseJoins(t *testing.T) {
	g := New(parseBody(t, `
if cond() {
	a()
} else {
	b()
}
c()`))
	// Entry (cond) branches to then and else; both join before c().
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if dispatch has %d successors, want 2", len(g.Entry.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatalf("exit unreachable")
	}
}

func TestIfWithoutElseHasFallthroughEdge(t *testing.T) {
	g := New(parseBody(t, `
if cond() {
	a()
}
b()`))
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if-no-else dispatch has %d successors, want 2 (then, after)", len(g.Entry.Succs))
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := New(parseBody(t, `
for i := 0; i < 10; i++ {
	body()
}
after()`))
	// Some block must have a back edge: a successor with a smaller index
	// that is not Exit.
	back := false
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s.Index < blk.Index && s != g.Exit && s != g.Entry {
				back = true
			}
		}
	}
	if !back {
		t.Fatalf("no back edge in a for loop")
	}
	if !g.Reachable()[g.Exit] {
		t.Fatalf("exit unreachable")
	}
}

func TestInfiniteForCannotReachExit(t *testing.T) {
	g := New(parseBody(t, `
for {
	body()
}`))
	if g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("entry claims to reach exit past an infinite loop")
	}
}

func TestBreakEscapesInfiniteLoop(t *testing.T) {
	g := New(parseBody(t, `
for {
	if done() {
		break
	}
}
after()`))
	if !g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("break does not lead to exit")
	}
}

func TestRangeBodyNotInHeader(t *testing.T) {
	g := New(parseBody(t, `
for _, v := range items {
	use(v)
}`))
	// The loop body must be its own block: no block leaf may be the whole
	// RangeStmt (that would smuggle the body into the header).
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				t.Fatalf("RangeStmt stored as a leaf; body statements would be analyzed at the header")
			}
		}
	}
	if !g.Reachable()[g.Exit] {
		t.Fatalf("exit unreachable")
	}
}

func TestEarlyReturn(t *testing.T) {
	g := New(parseBody(t, `
if bad() {
	return
}
work()`))
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2 (early return + fall off end)", len(g.Exit.Preds))
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := New(parseBody(t, `
switch tag() {
case 1:
	one()
	fallthrough
case 2:
	two()
default:
	other()
}
after()`))
	// The clause executing one() must reach the clause executing two()
	// without going through the dispatch block.
	var oneBlk, twoBlk *Block
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						switch id.Name {
						case "one":
							oneBlk = blk
						case "two":
							twoBlk = blk
						}
					}
				}
			}
		}
	}
	if oneBlk == nil || twoBlk == nil {
		t.Fatalf("clause bodies not found")
	}
	found := false
	for _, s := range oneBlk.Succs {
		if s == twoBlk {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallthrough edge missing from case 1 to case 2")
	}
}

func TestSwitchNoDefaultFallsThrough(t *testing.T) {
	g := New(parseBody(t, `
switch tag() {
case 1:
	one()
}
after()`))
	// With no default, the dispatch block needs a direct edge past the
	// clauses.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("dispatch successors = %d, want 2 (clause, after)", len(g.Entry.Succs))
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g := New(parseBody(t, `
select {}
after()`))
	if g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("entry reaches exit past select{}")
	}
}

func TestSelectBranches(t *testing.T) {
	g := New(parseBody(t, `
select {
case <-a:
	one()
case b <- 1:
	two()
default:
	three()
}
after()`))
	if len(g.Entry.Succs) != 3 {
		t.Fatalf("select dispatch successors = %d, want 3", len(g.Entry.Succs))
	}
	if !g.Reachable()[g.Exit] {
		t.Fatalf("exit unreachable")
	}
}

func TestGotoBackward(t *testing.T) {
	g := New(parseBody(t, `
L:
	work()
	goto L`))
	if g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("entry reaches exit past goto loop with no escape")
	}
	if reachableCount(g) < 2 {
		t.Fatalf("goto loop blocks unreachable")
	}
}

func TestLabeledBreak(t *testing.T) {
	g := New(parseBody(t, `
outer:
	for {
		for {
			if done() {
				break outer
			}
		}
	}
after()`))
	if !g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("labeled break does not escape to exit")
	}
}

func TestLabeledContinueTargetsOuterLoop(t *testing.T) {
	g := New(parseBody(t, `
outer:
	for i := 0; i < 3; i++ {
		for {
			continue outer
		}
	}
after()`))
	if !g.CanReach(g.Exit)[g.Entry] {
		t.Fatalf("labeled continue strands control in the inner loop")
	}
}

func TestPanicTerminates(t *testing.T) {
	g := New(parseBody(t, `
if bad() {
	panic("boom")
}
work()`))
	if len(g.Exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2 (panic + fall off end)", len(g.Exit.Preds))
	}
}

func TestDefersCollectedWithoutEdges(t *testing.T) {
	g := New(parseBody(t, `
defer cleanup()
work()`))
	if len(g.Defers) != 1 {
		t.Fatalf("defers collected = %d, want 1", len(g.Defers))
	}
}

// TestForwardMustAnalysis pins the fixpoint semantics: a "mark() definitely
// called" analysis (boolean fact, AND join) must be true only when every
// path marks.
func TestForwardMustAnalysis(t *testing.T) {
	marked := Flow[bool]{
		Entry: false,
		Join:  func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
		Transfer: func(n ast.Node, in bool) bool {
			found := in
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
						found = true
					}
				}
				return true
			})
			return found
		},
	}

	cases := []struct {
		name string
		body string
		want bool
	}{
		{"straight", "mark()\nwork()", true},
		{"one branch only", "if cond() {\n\tmark()\n}\nwork()", false},
		{"both branches", "if cond() {\n\tmark()\n} else {\n\tmark()\n}", true},
		{"before branch", "mark()\nif cond() {\n\twork()\n}", true},
		{"inside loop body", "for i := 0; i < n; i++ {\n\tmark()\n}", false},
	}
	for _, tc := range cases {
		g := New(parseBody(t, tc.body))
		got, ok := Forward(g, marked)[g.Exit]
		if !ok {
			t.Fatalf("%s: exit unreachable", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: must-marked at exit = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestVisitSeesPerLeafFacts checks Visit replays facts statement by
// statement, not just block by block.
func TestVisitSeesPerLeafFacts(t *testing.T) {
	count := Flow[int]{
		Entry: 0,
		Join:  func(a, b int) int { return max(a, b) },
		Equal: func(a, b int) bool { return a == b },
		Transfer: func(n ast.Node, in int) int {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "step") {
						return in + 1
					}
				}
			}
			return in
		},
	}
	g := New(parseBody(t, "step1()\nstep2()\nstep3()"))
	var before []int
	Visit(g, count, func(n ast.Node, fact int) {
		before = append(before, fact)
	})
	want := []int{0, 1, 2}
	if len(before) != len(want) {
		t.Fatalf("visited %d leaves, want %d", len(before), len(want))
	}
	for i := range want {
		if before[i] != want[i] {
			t.Errorf("leaf %d: fact %d, want %d", i, before[i], want[i])
		}
	}
}

// TestUnreachableBlocksExcluded: code after return contributes no facts.
func TestUnreachableBlocksExcluded(t *testing.T) {
	g := New(parseBody(t, `
return
work()`))
	reach := g.Reachable()
	for _, blk := range g.Blocks {
		if !reach[blk] {
			return // found the dead block: good
		}
	}
	t.Fatalf("dead code after return is marked reachable")
}
