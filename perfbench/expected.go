package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/modelgen"
)

// The expected-verdict table. It is written by hand from each model's
// documented semantics (the comments in models/*.smv and in the
// modelgen generators) and never read back from the checker under test;
// at set-up the benchmark also cross-checks it against the explicit-
// state checker on every model small enough for it (oracle.go).

type verdict struct {
	spec  string
	holds bool
}

type expectation struct {
	ctl, ltl []verdict
	// reachable is a hand-derived reachable-state count, or 0 where the
	// benchmark derives none (the explicit oracle still counts the small
	// models at set-up).
	reachable float64
}

var shippedExpectations = map[string]expectation{
	// Safety of the sequence bits holds; with lossy channels and no
	// fairness every liveness property that needs a frame through fails.
	"abp": {
		ctl: []verdict{
			{"AG (ack -> !agree)", true},
			{"AG (deliver -> agree)", true},
			{"AG (send -> EF ack)", true},
			{"AG EF deliver", true},
		},
		ltl: []verdict{
			{"G (send -> F ack)", false},
			{"G (ack -> !agree)", true},
			{"G (deliver -> agree)", true},
			{"F ack", false},
			{"G (deliver -> X !agree)", true},
		},
	},
	// Client 1 can be starved without a fairness constraint on granting.
	"arbiter": {ctl: []verdict{
		{"AG !(grant = g1 & grant = g2)", true},
		{"AG (req1 & req2 -> AF (grant = g1 | grant = g2))", true},
		{"AG (req1 -> AF served1)", false},
	}},
	// MSI coherence holds; c1 can alternate modified/invalid forever.
	"cache": {ctl: []verdict{
		{"AG !(c0.dirty & c1.st != invalid)", true},
		{"AG !(c1.dirty & c0.st != invalid)", true},
		{"AG EF c0.dirty", true},
		{"AG EF c1.dirty", true},
		{"AG AF c0.dirty", true},
		{"AG AF c1.st = shared", false},
	}},
	"chase": chaseExpectation(),
	// The counter advances under a fair tick and wraps.
	"counter": {ctl: []verdict{
		{"AG AF n = 0", true},
		{"AG (n = 3 -> AX (n = 3 | n = 4))", true},
		{"AG EF n = 7", true},
	}},
	// The polite tie-break makes the philosophers safe and live.
	"dining": {ctl: []verdict{
		{"AG !(p0.st = eating & p1.st = eating)", true},
		{"AG (p0.wants -> AF p0.st = eating)", true},
		{"AG (p1.wants -> AF p1.st = eating)", true},
		{"AG EF (p0.st = thinking & p1.st = thinking)", true},
	}},
	"hanoi": hanoiExpectation(5),
	// Process 2 reads process 1's current state and races it into the
	// critical section.
	"mutex": {ctl: []verdict{
		{"AG !both", false},
		{"AG EF p1 = critical", true},
	}},
	// Peterson is safe and, under fair scheduling, live for a waiting
	// process; a process may stay idle forever, and the other may step
	// while p0 sits in its critical section.
	"peterson": {
		ctl: []verdict{
			{"AG !(crit0 & crit1)", true},
			{"AG (wait0 -> AF crit0)", true},
			{"AG (wait1 -> AF crit1)", true},
			{"AG EF crit0", true},
		},
		ltl: []verdict{
			{"G !(crit0 & crit1)", true},
			{"G (wait0 -> F crit0)", true},
			{"G (wait1 -> F crit1)", true},
			{"F crit0", false},
			{"G F crit0", false},
			{"G (crit0 -> X !crit0)", false},
		},
	},
	// The token ring is safe and live; the last spec is false on purpose.
	"ring": {ctl: []verdict{
		{"AG !(st1.in_cs & st2.in_cs)", true},
		{"AG !(st2.in_cs & st3.in_cs)", true},
		{"AG !(st1.in_cs & st3.in_cs)", true},
		{"AG (st1.st = want -> AF st1.in_cs)", true},
		{"AG (st2.st = want -> AF st2.in_cs)", true},
		{"AG EF st3.in_cs", true},
		{"AG !st1.in_cs", false},
	}},
	// The paper's case study: mutual exclusion holds, the liveness of
	// both request/acknowledge pairs fails, the acknowledge stays
	// possible.
	"seitz": {ctl: []verdict{
		{"AG !(meol.out & meor.out)", true},
		{"AG (tr1.out -> AF ta1.out)", false},
		{"AG (tr1.out -> EF ta1.out)", true},
		{"AG (tr2.out -> AF ta2.out)", false},
	}},
	// The scheduler can starve p1 exactly when the semaphore is free.
	"semaphore": {ctl: []verdict{
		{"AG !(p1.in_cs & p2.in_cs)", true},
		{"AG (p1.st = entering -> AF p1.in_cs)", false},
		{"AG (p1.st = entering -> EF p1.in_cs)", true},
	}},
}

// hanoiExpectation: the goal is reachable from everywhere (moves are
// reversible) and the counterexample to AG !goal is a solution; the
// mover may stutter forever, so F goal fails. Every placement of the n
// disks is a legal tower configuration and reachable, and the two free
// selectors take 3×3 values: 9·3^n states.
func hanoiExpectation(n int) expectation {
	return expectation{
		ctl: []verdict{
			{"EF goal", true},
			{"AG !goal", false},
			{"AG EF goal", true},
		},
		ltl: []verdict{
			{"F goal", false},
			{"G (goal -> d0 = c)", true},
		},
		reachable: 9 * math.Pow(3, float64(n)),
	}
}

// chaseExpectation: the evader can run forever from the opposite cell
// (AF caught fails, the escape lasso is the counterexample), capture
// stays reachable because the evader may run into the pursuer, and
// capture is absorbing.
func chaseExpectation() expectation {
	return expectation{
		ctl: []verdict{
			{"EF caught", true},
			{"AF caught", false},
			{"AG EF caught", true},
			{"AG (caught -> AX caught)", true},
		},
		ltl: []verdict{
			{"F caught", false},
			{"G (caught -> G caught)", true},
		},
	}
}

// arbiterExpectation takes the arbiter truth from modelgen.ArbiterSpecs.
// Reachable states: the n free request bits times the (token, grant)
// pairs — a grant gi is only ever out with the token already moved on
// to c(i+1), so each of the n token values pairs with "none" or exactly
// one grant: 2n·2^n.
func arbiterExpectation(n int) expectation {
	specs, holds := modelgen.ArbiterSpecs(n)
	var e expectation
	for i, s := range specs {
		e.ctl = append(e.ctl, verdict{s, holds[i]})
	}
	e.reachable = float64(2*n) * math.Pow(2, float64(n))
	return e
}

// expectationFor returns the table entry of a corpus model name.
func expectationFor(name string) (expectation, error) {
	if e, ok := shippedExpectations[name]; ok {
		return e, nil
	}
	family, n, err := splitGenerated(name)
	if err != nil {
		return expectation{}, err
	}
	switch family {
	case "arbiter":
		return arbiterExpectation(n), nil
	case "chase":
		return chaseExpectation(), nil
	case "hanoi":
		return hanoiExpectation(n), nil
	}
	return expectation{}, fmt.Errorf("no expected verdicts for model %q", name)
}

// normSpec compares spec texts up to white space: the checker prints a
// re-rendered source ("AG ! ( p & q )") of what the model wrote.
func normSpec(s string) string {
	return strings.Join(strings.Fields(s), "")
}

// lookup finds the expected verdict of one spec; ok is false for a spec
// the table does not list, which counts as a mismatch.
func lookup(table []verdict, spec string) (holds, ok bool) {
	key := normSpec(spec)
	for _, v := range table {
		if normSpec(v.spec) == key {
			return v.holds, true
		}
	}
	return false, false
}
