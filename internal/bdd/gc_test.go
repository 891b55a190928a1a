package bdd

import (
	"math/rand"
	"strings"
	"testing"
)

func TestGCKeepsProtectedRoots(t *testing.T) {
	m := New(6)
	f := m.Protect(m.Xor(m.Var(0), m.And(m.Var(1), m.Var(2))))
	// create garbage
	for i := 0; i < 100; i++ {
		m.Or(m.And(m.Var(i%6), m.Var((i+1)%6)), m.Var((i+2)%6))
	}
	before := m.NumNodes()
	freed := m.GC()
	if freed == 0 {
		t.Fatal("expected garbage to be freed")
	}
	if m.NumNodes() >= before {
		t.Fatal("node count did not drop")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	// f must still be intact
	if !m.Eval(f, []bool{true, false, false, false, false, false}) {
		t.Fatal("protected root corrupted by GC")
	}
	if m.Eval(f, []bool{true, true, true, false, false, false}) {
		t.Fatal("protected root corrupted by GC (xor case)")
	}
}

func TestGCRebuildsCanonicity(t *testing.T) {
	m := New(4)
	f := m.Protect(m.Or(m.Var(0), m.Var(1)))
	m.And(m.Var(2), m.Var(3)) // garbage
	m.GC()
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	// Recreating the same function must yield the same ref.
	g := m.Or(m.Var(0), m.Var(1))
	if g != f {
		t.Fatalf("canonicity lost after GC: %d vs %d", g, f)
	}
	// Freed slots must be reused rather than growing the arena.
	n1 := len(m.nodes)
	m.And(m.Var(2), m.Var(3))
	if len(m.nodes) != n1 {
		t.Fatal("free list not reused")
	}
}

func TestProtectNesting(t *testing.T) {
	m := New(2)
	f := m.And(m.Var(0), m.Var(1))
	m.Protect(f)
	m.Protect(f)
	m.Unprotect(f)
	m.GC()
	if m.And(m.Var(0), m.Var(1)) != f {
		t.Fatal("doubly-protected node collected after single unprotect")
	}
	m.Unprotect(f)
	m.GC()
	// After full GC with no roots everything but the terminal goes.
	if m.NumNodes() != 1 {
		t.Fatalf("expected only the terminal to survive, have %d nodes", m.NumNodes())
	}
}

func TestMaybeGC(t *testing.T) {
	m := New(4)
	// Complement edges keep xor-of-variables tiny (one node per pair on
	// top of the four variables), so the threshold sits below that.
	m.SetGCThreshold(6)
	for i := 0; i < 50; i++ {
		m.Xor(m.Var(i%4), m.Var((i+1)%4))
	}
	if m.MaybeGC() == 0 {
		t.Fatal("MaybeGC should have collected above threshold")
	}
	m.SetGCThreshold(1 << 30)
	if m.MaybeGC() != 0 {
		t.Fatal("MaybeGC should be a no-op below threshold")
	}
}

func TestPermutationSwapsVariables(t *testing.T) {
	m := New(4)
	// swap 0<->1, 2<->3
	p := m.NewPermutation([]int{1, 0, 3, 2})
	f := m.And(m.Var(0), m.Or(m.Var(2), m.NVar(3)))
	g := p.Apply(f)
	want := m.And(m.Var(1), m.Or(m.Var(3), m.NVar(2)))
	if g != want {
		t.Fatal("permutation result wrong")
	}
	// applying twice is the identity for an involution
	if p.Apply(g) != f {
		t.Fatal("involution not identity")
	}
}

func TestPermutationInterleaved(t *testing.T) {
	// The model-checking pattern: variables 2i are current, 2i+1 next.
	m := New(6)
	toNext := m.NewPermutation([]int{1, 0, 3, 2, 5, 4})
	cur := m.AndN(m.Var(0), m.NVar(2), m.Var(4))
	next := toNext.Apply(cur)
	want := m.AndN(m.Var(1), m.NVar(3), m.Var(5))
	if next != want {
		t.Fatal("current->next renaming wrong")
	}
}

func TestCompose(t *testing.T) {
	m := New(3)
	// f = x0 xor x1 ; substitute x1 := x2 & x0
	f := m.Xor(m.Var(0), m.Var(1))
	g := m.And(m.Var(2), m.Var(0))
	got := m.Compose(f, 1, g)
	want := m.Xor(m.Var(0), g)
	if got != want {
		t.Fatal("Compose wrong")
	}
}

func TestVectorCompose(t *testing.T) {
	m := New(4)
	f := m.Or(m.Var(0), m.Var(1))
	got := m.VectorCompose(f, map[int]Ref{
		0: m.Var(2),
		1: m.Var(3),
	})
	want := m.Or(m.Var(2), m.Var(3))
	if got != want {
		t.Fatal("VectorCompose wrong")
	}
	// simultaneous swap: x0:=x1, x1:=x0
	h := m.And(m.Var(0), m.NVar(1))
	got = m.VectorCompose(h, map[int]Ref{0: m.Var(1), 1: m.Var(0)})
	want = m.And(m.Var(1), m.NVar(0))
	if got != want {
		t.Fatal("simultaneous VectorCompose wrong")
	}
}

func TestReorderPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 5
	for trial := 0; trial < 30; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		order := r.Perm(n)
		roots := m.Reorder(order, []Ref{f})
		if roots[0] != f {
			t.Fatalf("trial %d: Reorder moved the root %d -> %d", trial, f, roots[0])
		}
		checkAgainstTT(t, m, roots[0], ref, "after reorder")
		if err := CheckInvariants(m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkCanonicalSize(t, m, roots, func(c *Manager) []Ref {
			return []Ref{fromTruthTable(c, n, ref.bits)}
		})
		// order actually applied
		got := m.Order()
		for i := range order {
			if got[i] != order[i] {
				t.Fatalf("order not applied: %v vs %v", got, order)
			}
		}
	}
}

func TestReorderTranslatesProtectedRoots(t *testing.T) {
	m := New(4)
	f := m.Protect(m.Xor(m.Var(0), m.Var(3)))
	roots := m.Reorder([]int{3, 2, 1, 0}, []Ref{f})
	if m.ProtectedCount() != 1 {
		t.Fatal("protected root lost in reorder")
	}
	m.GC()
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	if !m.Eval(roots[0], []bool{true, false, false, false}) {
		t.Fatal("translated root wrong after reorder+GC")
	}
}

func TestSiftReducesInterleavingBlowup(t *testing.T) {
	// f = (x0↔x3) ∧ (x1↔x4) ∧ (x2↔x5) is exponential when the related
	// pairs are far apart and linear when interleaved.
	m := New(6)
	f := m.AndN(
		m.Eq(m.Var(0), m.Var(3)),
		m.Eq(m.Var(1), m.Var(4)),
		m.Eq(m.Var(2), m.Var(5)),
	)
	before := m.Size(f)
	roots := m.Sift([]Ref{f})
	after := m.Size(roots[0])
	if err := CheckInvariants(m); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("sifting made things worse: %d -> %d", before, after)
	}
	if after >= before {
		t.Logf("sift: no improvement (%d)", before)
	}
	// semantics preserved
	env := []bool{true, false, true, true, false, true}
	if !m.Eval(roots[0], env) {
		t.Fatal("sift broke semantics")
	}
	env[3] = false
	if m.Eval(roots[0], env) {
		t.Fatal("sift broke semantics (negative case)")
	}
}

func TestToDot(t *testing.T) {
	m := New(2)
	f := m.And(m.Var(0), m.Var(1))
	var sb strings.Builder
	if err := m.ToDot(&sb, f, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", `label="a"`, `label="b"`, "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	m := New(4)
	m.And(m.Var(0), m.Var(1))
	if m.Stats.ITECalls == 0 {
		t.Fatal("ITECalls not counted")
	}
	m.And(m.Var(0), m.Var(1)) // should hit cache
	if m.Stats.CacheHits == 0 {
		t.Fatal("cache hits not counted")
	}
}

func TestAddVarAfterUse(t *testing.T) {
	m := New(2)
	f := m.And(m.Var(0), m.Var(1))
	v := m.AddVar()
	if v != 2 {
		t.Fatalf("AddVar returned %d", v)
	}
	g := m.And(f, m.Var(2))
	if !m.Eval(g, []bool{true, true, true}) || m.Eval(g, []bool{true, true, false}) {
		t.Fatal("late-added variable misbehaves")
	}
}

func TestUniqueTableGrowth(t *testing.T) {
	// Force many nodes to trigger bucket growth and rehash.
	m := New(16)
	f := False
	for i := 0; i < 16; i++ {
		f = m.Xor(f, m.Var(i))
	}
	g := m.Or(f, m.And(m.Var(0), m.Var(15)))
	_ = g
	// canonical check after any growth
	h := False
	for i := 0; i < 16; i++ {
		h = m.Xor(h, m.Var(i))
	}
	if h != f {
		t.Fatal("canonicity lost after table growth")
	}
}
