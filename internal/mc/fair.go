package mc

import (
	"repro/internal/bdd"
)

// Fair CTL checking (Section 5). A path is fair if every constraint
// h ∈ H holds infinitely often along it. EG is the interesting case:
//
//	CheckFairEG(f) = gfp Z [ f ∧ ⋀_{k} EX( E[f U Z ∧ h_k] ) ]
//
// EX and EU reduce to the unfair procedures against the set fair of
// states that start some fair path:
//
//	CheckFairEX(f)   = CheckEX(f ∧ fair)
//	CheckFairEU(f,g) = CheckEU(f, g ∧ fair)

// Rings holds the saved approximation sequences of the inner least
// fixpoints E[f U Z ∧ h_k] from the final outer iteration of fair EG,
// with Z equal to the fixpoint. Rings[k][i] is the set of states from
// which some state of (EG f) ∧ h_k is reachable in i or fewer steps
// along f-states. This is precisely the data Section 6's witness
// construction walks over. The rings are protected against garbage
// collection and registered with the reorder registry until Release.
type Rings struct {
	F       bdd.Ref     // the f the rings were computed for
	Result  bdd.Ref     // the fair EG f fixpoint
	PerFair [][]bdd.Ref // PerFair[k] = rings for fairness constraint k

	hook int // reorder-registry id
}

// register installs the rings' reorder hook. PerFair may still grow
// afterwards; the hook reads the current slices on every invocation.
func (r *Rings) register(m *bdd.Manager) {
	r.hook = m.OnReorder(func(visit func(bdd.Ref)) {
		visit(r.F)
		visit(r.Result)
		for _, rs := range r.PerFair {
			for _, ring := range rs {
				visit(ring)
			}
		}
	})
}

// FairEG computes EG f under the structure's fairness constraints and
// returns the saved rings. With no fairness constraints it degenerates
// to plain EG and a single pseudo-constraint "true" so that witness
// construction still has rings to walk (the cycle must merely return to
// the EG set).
func (c *Checker) FairEG(f bdd.Ref) (bdd.Ref, *Rings) {
	m := c.S.M
	// c.S.Fair aliases the structure's slice, whose elements the
	// structure's root visitor keeps alive across collection and
	// reordering.
	fair := c.S.Fair
	nFair := len(fair)
	useTrue := nFair == 0
	if useTrue {
		// Treat as a single trivial constraint h = true.
		nFair = 1
	}
	h := func(k int) bdd.Ref {
		if useTrue {
			return bdd.True
		}
		return fair[k]
	}

	z := f
	id := m.RegisterRefs(&f, &z)
	for {
		c.Stats.FairEGOuter++
		c.note()
		c.maybeReorder()
		next := f
		nid := m.RegisterRefs(&next)
		for k := 0; k < nFair; k++ {
			target := m.And(z, h(k))
			eu := c.EU(f, target)
			ex := c.EX(eu)
			next = m.And(next, ex)
		}
		m.Unregister(nid)
		next = m.And(next, z)
		if next == z {
			break
		}
		z = next
	}
	m.Unregister(id)

	// Final pass with Z at the fixpoint: save the rings. The rings
	// struct is registered before the pass so sequences already saved
	// survive reorders triggered by the remaining EU fixpoints.
	rings := &Rings{F: m.Protect(f), Result: m.Protect(z)}
	rings.register(m)
	for k := 0; k < nFair; k++ {
		target := m.And(rings.Result, h(k))
		_, rs := c.EUApprox(rings.F, target)
		for _, r := range rs {
			m.Protect(r)
		}
		rings.PerFair = append(rings.PerFair, rs)
	}
	return rings.Result, rings
}

// Release unprotects the rings' BDDs and removes their reorder
// registration. Call when witness construction is done with them.
func (r *Rings) Release(m *bdd.Manager) {
	m.Unregister(r.hook)
	m.Unprotect(r.F)
	m.Unprotect(r.Result)
	for _, rs := range r.PerFair {
		for _, q := range rs {
			m.Unprotect(q)
		}
	}
}

// Fair returns the set of states from which some fair path begins
// (CheckFair(EG true)); it is cached. Without fairness constraints every
// state of a total structure qualifies, so True is returned.
func (c *Checker) Fair() bdd.Ref {
	if c.haveFair {
		return c.fairSet
	}
	if len(c.S.Fair) == 0 {
		c.fairSet = bdd.True
	} else {
		res, rings := c.FairEG(bdd.True)
		c.fairSet = c.S.M.Protect(res)
		rings.Release(c.S.M)
	}
	c.haveFair = true
	return c.fairSet
}

// SeedFair installs a precomputed fair-states set, skipping the fair EG
// fixpoint that Fair would otherwise run — the warm-start path, where
// the set was restored from a disk record or carried over from a prior
// query. Call it after SetCareSet/UseReachableCareSet: installing a care
// set clears the fair cache.
func (c *Checker) SeedFair(fair bdd.Ref) {
	if c.haveFair {
		c.S.M.Unprotect(c.fairSet)
	}
	c.fairSet = c.S.M.Protect(fair)
	c.haveFair = true
}

// CachedFair peeks at the fair-set cache without computing anything.
func (c *Checker) CachedFair() (bdd.Ref, bool) { return c.fairSet, c.haveFair }

// FairEX computes EX f under fairness. The argument is registered across
// the (possibly reordering) fair-set computation.
func (c *Checker) FairEX(f bdd.Ref) bdd.Ref {
	if len(c.S.Fair) == 0 {
		return c.EX(f)
	}
	id := c.S.M.RegisterRefs(&f)
	fairSet := c.Fair()
	c.S.M.Unregister(id)
	return c.EX(c.S.M.And(f, fairSet))
}

// FairEU computes E[f U g] under fairness.
func (c *Checker) FairEU(f, g bdd.Ref) bdd.Ref {
	if len(c.S.Fair) == 0 {
		return c.EU(f, g)
	}
	id := c.S.M.RegisterRefs(&f, &g)
	fairSet := c.Fair()
	c.S.M.Unregister(id)
	return c.EU(f, c.S.M.And(g, fairSet))
}

// FairEUApprox is FairEU with the approximation rings (for witnesses).
func (c *Checker) FairEUApprox(f, g bdd.Ref) (bdd.Ref, []bdd.Ref) {
	if len(c.S.Fair) == 0 {
		return c.EUApprox(f, g)
	}
	id := c.S.M.RegisterRefs(&f, &g)
	fairSet := c.Fair()
	c.S.M.Unregister(id)
	return c.EUApprox(f, c.S.M.And(g, fairSet))
}
