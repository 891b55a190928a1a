package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
)

// The paper closes a witness cycle by testing {s′} ∧ EX E[f U {t}] and
// descending that fixpoint's rings; the generator instead searches
// forward from s′ and stops at t. The tests below keep the paper's
// formula as the oracle: for sampled pairs (s′, t), with t in fair EG f
// and s′ an f-state, closeCycle must succeed exactly when
// s′ ∈ EX E[f U {t}], and its closing path must be a shortest one, made
// of edges and f-states.

// closureTally counts oracle outcomes so a test can require that both
// the success and the failure branch were exercised.
type closureTally struct{ closed, open int }

// closurePairs is the number of (s′, t) pairs sampled per path set.
const closurePairs = 4

// checkClosureOracle compiles src once per image mode and checks
// closeCycle against the oracle on pairs sampled with r.
func checkClosureOracle(t *testing.T, name, src string, r *rand.Rand, tally *closureTally) {
	t.Helper()
	for _, mode := range []string{"partitioned", "monolithic", "disjunctive"} {
		c, err := smv.CompileSource(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		switch mode {
		case "monolithic":
			c.S.EnablePartition(false)
		case "disjunctive":
			if c.S.NumDisjuncts() == 0 {
				continue
			}
			c.S.EnableDisjunct(true)
		}
		checkClosureMode(t, name+"/"+mode, c, r, tally)
	}
}

func checkClosureMode(t *testing.T, name string, c *smv.Compiled, r *rand.Rand, tally *closureTally) {
	t.Helper()
	s := c.S
	m := s.M
	reach, _ := s.Reachable()
	checker := mc.New(s)
	gen := core.NewGenerator(checker)

	// The path sets: true, and each CTL spec's satisfaction set and its
	// complement (the f of the EG witnesses its counterexamples need).
	fs := []bdd.Ref{bdd.True}
	for _, sp := range c.Module.Specs {
		if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
			t.Fatalf("%s: %s: %v", name, sp.Source, err)
		}
		sat, err := checker.Check(sp.Formula)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, sp.Source, err)
		}
		fs = append(fs, sat, m.Not(sat))
	}

	for _, f := range fs {
		egf, rings := checker.FairEG(f)
		rings.Release(m)
		heads := m.And(egf, reach)
		sources := m.And(f, reach)
		if heads == bdd.False {
			continue
		}
		for k := 0; k < closurePairs; k++ {
			head := randomState(s, heads, r)
			sPrime := randomState(s, sources, r)
			checkClosurePair(t, name, gen, f, sPrime, head, tally)
		}
	}
}

// checkClosurePair checks one closeCycle call against the paper's
// backward formula.
func checkClosurePair(t *testing.T, name string, gen *core.Generator, f bdd.Ref, sPrime, head kripke.State, tally *closureTally) {
	t.Helper()
	s := gen.C.S
	m := s.M
	euSet, euRings := gen.C.EUApprox(f, s.StateCube(head))
	want := s.Holds(gen.C.EX(euSet), sPrime)

	closing, ok, err := gen.CloseCycle(f, sPrime, head)
	if err != nil {
		t.Fatalf("%s: closeCycle(%s, %s): %v", name, s.FormatState(sPrime), s.FormatState(head), err)
	}
	if ok != want {
		t.Fatalf("%s: closeCycle(%s, %s) = %v, oracle s′ ∈ EX E[f U {t}] = %v",
			name, s.FormatState(sPrime), s.FormatState(head), ok, want)
	}
	if !ok {
		tally.open++
		return
	}
	tally.closed++

	// A shortest closing path has as many states between s′ and t as the
	// index of the first backward ring that meets image(s′).
	succs := s.Image(s.StateCube(sPrime))
	first := -1
	for i, ring := range euRings {
		if m.And(succs, ring) != bdd.False {
			first = i
			break
		}
	}
	if len(closing) != first {
		t.Fatalf("%s: closing path has %d states between s′ and t, first ring meeting image(s′) is %d",
			name, len(closing), first)
	}
	prev := sPrime
	for i, st := range closing {
		if !s.HasEdge(prev, st) {
			t.Fatalf("%s: closing step %d is not an edge", name, i)
		}
		if !s.Holds(f, st) {
			t.Fatalf("%s: closing state %d is not an f-state", name, i)
		}
		prev = st
	}
	if !s.HasEdge(prev, head) {
		t.Fatalf("%s: closing path does not end with an edge into t", name)
	}
}

// randomState draws a state of a nonempty set by fixing the current
// variables one at a time to a random value that keeps the set
// nonempty.
func randomState(s *kripke.Symbolic, set bdd.Ref, r *rand.Rand) kripke.State {
	m := s.M
	for _, v := range s.CurVars() {
		lit := m.Lit(v, r.Intn(2) == 0)
		if next := m.And(set, lit); next != bdd.False {
			set = next
		} else {
			set = m.And(set, m.Not(lit))
		}
	}
	return s.PickState(set)
}

// TestCycleClosureOracle runs the closure oracle over every shipped
// model and 200 modelgen seeds, in each image mode.
func TestCycleClosureOracle(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "models", "*.smv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped models found: %v", err)
	}
	var tally closureTally
	r := rand.New(rand.NewSource(1))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".smv")
		checkClosureOracle(t, name, string(src), r, &tally)
	}
	for seed := int64(0); seed < 200; seed++ {
		checkClosureOracle(t, "modelgen", modelgen.Generate(seed).Source(), rand.New(rand.NewSource(seed)), &tally)
	}
	if tally.closed == 0 || tally.open == 0 {
		t.Fatalf("oracle exercised one branch only: %d closed, %d open", tally.closed, tally.open)
	}
	t.Logf("%d pairs closed, %d open", tally.closed, tally.open)
}

// FuzzCycleClosure runs the closure oracle on the model a fuzzed
// modelgen seed generates.
func FuzzCycleClosure(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var tally closureTally
		checkClosureOracle(t, "modelgen", modelgen.Generate(seed).Source(), rand.New(rand.NewSource(seed)), &tally)
	})
}

// TestChaseClosureStopsEarly guards the closure's cost without a clock:
// on the 32-cell chase, whose AF counterexample needs 15 closure
// attempts, the witness must run next to no EU fixpoint iterations of
// its own (a backward closure fixpoint per attempt ran 548).
func TestChaseClosureStopsEarly(t *testing.T) {
	c, err := smv.CompileSource(modelgen.ChaseSource(32))
	if err != nil {
		t.Fatal(err)
	}
	var spec *smv.Spec
	for _, sp := range c.Module.Specs {
		if sp.Source == "AF caught" {
			spec = sp
		}
	}
	if spec == nil {
		t.Fatal("chase model has no AF caught spec")
	}
	if err := c.ResolveSpecAtoms(spec.Formula); err != nil {
		t.Fatal(err)
	}
	checker := mc.New(c.S)
	gen := core.NewGenerator(checker)
	holds, _, err := checker.CheckInit(spec.Formula)
	if err != nil || holds {
		t.Fatalf("AF caught: holds=%v err=%v, want a failing spec", holds, err)
	}
	before := checker.Stats.EUIterations
	holds, tr, err := gen.CounterexampleInit(spec.Formula)
	if err != nil || holds || tr == nil {
		t.Fatalf("AF caught counterexample: holds=%v trace=%v err=%v", holds, tr != nil, err)
	}
	if err := core.ValidatePath(c.S, tr); err != nil {
		t.Fatal(err)
	}
	if grew := checker.Stats.EUIterations - before; grew > 10 {
		t.Errorf("counterexample ran %d EU iterations, want at most 10", grew)
	}
	if gen.Stats.ClosureAttempts != 15 || gen.Stats.Restarts != 14 {
		t.Errorf("closure attempts/restarts = %d/%d, want 15/14", gen.Stats.ClosureAttempts, gen.Stats.Restarts)
	}
}
