package repro

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/smv"
)

// TestSequentialContextNeverForks: with the parallel engine never
// enabled, a full reachability plus CTL check of the Seitz arbiter —
// fixpoints, counterexamples and their validation — runs entirely in
// the BDD kernels' sequential context: not one parallel section or
// fork.
func TestSequentialContextNeverForks(t *testing.T) {
	src, err := os.ReadFile("models/seitz.smv")
	if err != nil {
		t.Fatal(err)
	}
	c, err := smv.CompileSource(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if reach, _ := c.S.Reachable(); c.S.CountStates(reach) == 0 {
		t.Fatal("no reachable states")
	}
	gen := core.NewGenerator(mc.New(c.S))
	failing := 0
	for _, sp := range c.Module.Specs {
		if err := c.ResolveSpecAtoms(sp.Formula); err != nil {
			t.Fatal(err)
		}
		holds, tr, err := gen.CounterexampleInit(sp.Formula)
		if err != nil {
			t.Fatalf("%s: %v", sp.Source, err)
		}
		if !holds {
			validateTrace(t, sp.Source, c.S, tr)
			failing++
		}
	}
	if failing == 0 {
		t.Fatal("no failing spec: the check never generated a counterexample")
	}
	st := c.S.M.Stats
	if st.ParallelSections != 0 || st.ParallelForks != 0 {
		t.Fatalf("sequential check opened %d parallel sections and %d forks", st.ParallelSections, st.ParallelForks)
	}
	if st.ITECalls == 0 || st.AndExistsCalls == 0 {
		t.Fatalf("check ran %d ITE and %d AndExists calls; the probe is vacuous", st.ITECalls, st.AndExistsCalls)
	}
}
