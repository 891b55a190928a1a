package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ctl"
	"repro/internal/explicit"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/smv"
)

// The explicit-state oracle bounds: models beyond them (the Seitz
// arbiter, the scaled generators) rely on the hand-written table alone.
const (
	oracleMaxStates = 6000
	oracleMaxEdges  = 60000
)

var errOracleBounds = errors.New("model exceeds the explicit oracle's bounds")

// oracleCheck cross-checks a model's expected-verdict table against
// internal/explicit: the reachable fragment is enumerated state by
// state and every SPEC and LTLSPEC is decided by graph search. It
// returns the enumerated state count, or errOracleBounds for a model
// too large to enumerate.
func oracleCheck(m *model) (int, error) {
	c, err := smv.CompileSource(m.src)
	if err != nil {
		return 0, err
	}
	e, err := enumerate(c)
	if err != nil {
		return 0, err
	}
	if m.want.reachable != 0 && float64(e.N) != m.want.reachable {
		return 0, fmt.Errorf("%s: explicit oracle enumerates %d reachable states, table says %.0f",
			m.name, e.N, m.want.reachable)
	}
	ec := explicit.New(e)
	for _, sp := range c.Module.Specs {
		holds, err := ec.CheckInit(sp.Formula)
		if err != nil {
			return 0, fmt.Errorf("%s: explicit SPEC %s: %w", m.name, sp.Source, err)
		}
		if err := m.checkVerdict(false, sp.Source, holds); err != nil {
			return 0, fmt.Errorf("explicit oracle disagrees with the table: %w", err)
		}
	}
	for _, sp := range c.Module.LTLSpecs {
		holds, _, err := explicit.CheckLTL(e, sp.Formula)
		if err != nil {
			return 0, fmt.Errorf("%s: explicit LTLSPEC %s: %w", m.name, sp.Source, err)
		}
		if err := m.checkVerdict(true, sp.Source, holds); err != nil {
			return 0, fmt.Errorf("explicit oracle disagrees with the table: %w", err)
		}
	}
	return e.N, nil
}

// enumerate builds the explicit structure of the reachable fragment,
// labelled the way the explicit checkers read atoms: booleans by name,
// finite-domain variables and valued DEFINEs as "name=value".
func enumerate(c *smv.Compiled) (*kripke.Explicit, error) {
	s := c.S
	index := map[string]int{}
	var states []kripke.State
	add := func(st kripke.State) (int, bool) {
		k := st.Key()
		if i, ok := index[k]; ok {
			return i, false
		}
		index[k] = len(states)
		states = append(states, st)
		return len(states) - 1, true
	}
	init := s.EnumStates(s.Init, oracleMaxStates+1)
	if len(init) > oracleMaxStates {
		return nil, errOracleBounds
	}
	var queue []int
	for _, st := range init {
		i, _ := add(st)
		queue = append(queue, i)
	}
	type edge struct{ u, v int }
	var edges []edge
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, succ := range s.Successors(states[u], oracleMaxEdges+1) {
			v, fresh := add(succ)
			if fresh {
				if len(states) > oracleMaxStates {
					return nil, errOracleBounds
				}
				queue = append(queue, v)
			}
			edges = append(edges, edge{u, v})
			if len(edges) > oracleMaxEdges {
				return nil, errOracleBounds
			}
		}
	}
	e := kripke.NewExplicit(len(states))
	for _, ed := range edges {
		e.AddEdge(ed.u, ed.v)
	}
	for _, st := range init {
		e.AddInit(index[st.Key()])
	}
	for i, st := range states {
		for _, name := range c.Order {
			if strings.HasPrefix(name, "_") {
				continue // scheduler internals never appear in specs
			}
			v := c.StateValue(st, name)
			if v.Kind == smv.VBool {
				if v.B {
					e.Label(i, name)
				}
				continue
			}
			e.Label(i, name+"="+v.String())
		}
	}
	// Spec atoms that are DEFINEs are not variables: label them through
	// the symbolic atom sets. A valued DEFINE gets "name=?" where the
	// literal fails, which marks it finite-domain for the explicit
	// checker ("?" cannot appear in a spec).
	for _, l := range specLiterals(c.Module) {
		if c.Vars[l.name] != nil {
			continue
		}
		af := &ctl.Formula{Kind: ctl.KAtom, Name: l.name}
		if l.value != "" {
			af = &ctl.Formula{Kind: ctl.KEq, Name: l.name, Value: l.value}
		}
		set, err := s.AtomSet(af)
		if err != nil {
			return nil, err
		}
		for i, st := range states {
			switch holds := s.Holds(set, st); {
			case l.value == "" && holds:
				e.Label(i, l.name)
			case l.value != "" && holds:
				e.Label(i, l.name+"="+l.value)
			case l.value != "":
				e.Label(i, l.name+"=?")
			}
		}
	}
	for k, f := range s.Fair {
		sel := make([]bool, len(states))
		for i, st := range states {
			sel[i] = s.Holds(f, st)
		}
		e.AddFairSet(s.FairNames[k], sel)
	}
	return e, nil
}

type literal struct{ name, value string }

// specLiterals lists the atomic literals of every SPEC and LTLSPEC.
func specLiterals(m *smv.Module) []literal {
	seen := map[literal]bool{}
	var out []literal
	note := func(l literal) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	var walkC func(f *ctl.Formula)
	walkC = func(f *ctl.Formula) {
		if f == nil {
			return
		}
		switch f.Kind {
		case ctl.KAtom:
			note(literal{f.Name, ""})
		case ctl.KEq, ctl.KNeq:
			note(literal{f.Name, f.Value})
		}
		walkC(f.L)
		walkC(f.R)
	}
	var walkL func(f *ltl.Formula)
	walkL = func(f *ltl.Formula) {
		if f == nil {
			return
		}
		switch f.Kind {
		case ltl.KAtom:
			note(literal{f.Name, ""})
		case ltl.KEq, ltl.KNeq:
			note(literal{f.Name, f.Value})
		}
		walkL(f.L)
		walkL(f.R)
	}
	for _, sp := range m.Specs {
		walkC(sp.Formula)
	}
	for _, sp := range m.LTLSpecs {
		walkL(sp.Formula)
	}
	return out
}
