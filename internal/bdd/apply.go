package bdd

// This file implements the boolean connectives. Everything reduces to
// the if-then-else operator ITE(f,g,h) = (f ∧ g) ∨ (¬f ∧ h), memoized in
// a direct-mapped computed cache. The complexity of each binary
// operation is O(|f|·|g|) as stated in Section 2 of the paper.
//
// With complement edges, negation is free, which makes every triple
// expressible in many equivalent ways — f∧g is ITE(f,g,0) but also
// ITE(g,f,0), ¬ITE(f,¬g,1), ¬ITE(¬g,¬f,1), … Before touching the cache,
// ite3 rewrites the triple to the standard form of Brace, Rudell and
// Bryant (DAC 1990): terminal rules, ¬f collapses, the standard-triple
// argument swaps, and finally the two complement rules (first argument
// never complemented; second argument never complemented, complementing
// the result instead). All equivalent formulations then share one cache
// line, which is where the higher hit rates come from.
//
// Under DisableComplementEdges only the rewrites that exist in the
// structural representation apply (no rule may manufacture a
// complemented ref), and Not(f) builds ¬f node by node through the same
// recursion.

// Ite computes if-then-else: (f ∧ g) ∨ (¬f ∧ h). With the parallel
// engine enabled (SetParallelWorkers), sufficiently large calls
// evaluate in a fork-join parallel section; canonicity guarantees the
// returned Ref is identical either way.
func (m *Manager) Ite(f, g, h Ref) Ref {
	m.checkRef(f)
	m.checkRef(g)
	m.checkRef(h)
	if m.parGate(f, g, h) {
		return m.parRunOne(func(c *parCtx) (Ref, bool) { return m.ite3(c, f, g, h, 0) })
	}
	return m.iteSeq(f, g, h)
}

// iteSeq runs ite3 in the sequential context, which never fails.
func (m *Manager) iteSeq(f, g, h Ref) Ref {
	res, _ := m.ite3(nil, f, g, h, 0)
	return res
}

// before orders two refs for the standard-triple swaps: primarily by
// level, tie-broken by plain node index. Complement bits are ignored,
// which is what makes the swapped form canonical — ITE(f,1,h) and
// ITE(h,1,f) meet at the same triple whichever way they arrive.
func (m *Manager) before(a, b Ref) bool {
	la, lb := m.level(a), m.level(b)
	if la != lb {
		return la < lb
	}
	return a&^compBit < b&^compBit
}

// ite3 is the ITE recursion for both evaluation contexts (see
// parallel.go): c == nil is the sequential context — the exact
// direct-mapped cache, mk and the Stats counters; it never forks and
// never fails — while a non-nil c evaluates inside a parallel section,
// forking cofactor subproblems while c.shouldFork(depth) allows. ok is
// false only when a section ran out of arena.
func (m *Manager) ite3(c *parCtx, f, g, h Ref, depth int32) (Ref, bool) {
	if c == nil {
		m.Stats.ITECalls++
	} else {
		c.iteCalls++
	}
	// Terminal and trivial cases (valid in both representations).
	switch {
	case f == True:
		return g, true
	case f == False:
		return h, true
	case g == h:
		return g, true
	case g == True && h == False:
		return f, true
	}

	var neg Ref // compBit when the canonical triple computes ¬result
	if !m.noComp {
		// ¬f is one comparison away, so the f-collapses come in pairs.
		if g == f {
			g = True
		} else if g == f^compBit {
			g = False
		}
		if h == f {
			h = False
		} else if h == f^compBit {
			h = True
		}
		switch {
		case g == h:
			return g, true
		case g == True && h == False:
			return f, true
		case g == False && h == True:
			return f ^ compBit, true
		}

		// Standard triples: canonicalize the argument order of the
		// commutative forms.
		switch {
		case g == True: // f ∨ h = h ∨ f
			if m.before(h, f) {
				f, h = h, f
			}
		case h == False: // f ∧ g = g ∧ f
			if m.before(g, f) {
				f, g = g, f
			}
		case g == False: // ¬f ∧ h = ¬h' ∧ f' for (f',h') = (¬h,¬f)
			if m.before(h, f) {
				f, h = h^compBit, f^compBit
			}
		case h == True: // ¬f ∨ g = ITE(¬g, ¬f, 1)
			if m.before(g, f) {
				f, g = g^compBit, f^compBit
			}
		case g == h^compBit: // f XNOR g = ITE(g, f, ¬f)
			if m.before(g, f) {
				f, g = g, f
				h = g ^ compBit
			}
		}

		// Complement canonicalization: a complemented first argument
		// swaps the branches; a complemented second argument complements
		// the whole triple, remembering to flip the result.
		if f&compBit != 0 {
			f ^= compBit
			g, h = h, g
		}
		if g&compBit != 0 {
			g ^= compBit
			h ^= compBit
			neg = compBit
		}
		// The rewrites above can re-expose a trivial triple.
		switch {
		case g == h:
			return g ^ neg, true
		case g == True && h == False:
			return f ^ neg, true
		}
	} else {
		// Structural-mode normalization (no rule may introduce ¬).
		if g == f {
			g = True
		}
		if h == f {
			h = False
		}
		if g == True && h == False {
			return f, true
		}
	}

	var slot uint32
	if c == nil {
		m.Stats.CacheLookups++
		slot = cacheIndex(uint32(f), uint32(g), uint32(h), 0x17e, uint32(len(m.ite)))
		if e := &m.ite[slot]; e.valid && e.f == f && e.g == g && e.h == h {
			m.Stats.CacheHits++
			return e.res ^ neg, true
		}
	} else if res, ok := c.cacheGet(c.ps.ite, uint64(f)|uint64(g)<<32, uint64(h)); ok {
		return res ^ neg, true
	}

	lf, lg, lh := m.level(f), m.level(g), m.level(h)
	top := lf
	if lg < top {
		top = lg
	}
	if lh < top {
		top = lh
	}

	f0, f1 := m.cofactors(f, lf, top)
	g0, g1 := m.cofactors(g, lg, top)
	h0, h1 := m.cofactors(h, lh, top)

	var low, high Ref
	ok := true
	if c.shouldFork(depth) {
		low, high, ok = c.fork(
			func(c *parCtx) (Ref, bool) { return m.ite3(c, f0, g0, h0, depth+1) },
			func(c *parCtx) (Ref, bool) { return m.ite3(c, f1, g1, h1, depth+1) })
	} else if low, ok = m.ite3(c, f0, g0, h0, depth+1); ok {
		high, ok = m.ite3(c, f1, g1, h1, depth+1)
	}
	if !ok {
		return False, false
	}
	var res Ref
	if c == nil {
		res = m.mk(top, low, high)
	} else if res, ok = m.parMk(c, top, low, high); !ok {
		return False, false
	}

	if c == nil {
		m.ite[slot] = iteEntry{f: f, g: g, h: h, res: res, valid: true}
	} else {
		c.ps.parCachePut(c.ps.ite, uint64(f)|uint64(g)<<32, uint64(h), res)
	}
	return res ^ neg, true
}

// cofactors returns the (low, high) cofactors of f with respect to the
// variable at level top, given that f's own level is lf. The complement
// bit of f is pushed through to the cofactors.
func (m *Manager) cofactors(f Ref, lf, top uint32) (Ref, Ref) {
	if lf != top {
		return f, f
	}
	n := &m.nodes[f&^compBit]
	s := f & compBit
	return n.low ^ s, n.high ^ s
}

// Not returns the complement ¬f. With complement edges this is a single
// bit flip — no node allocation, no cache traffic. Under
// DisableComplementEdges it materializes the complement through ITE.
func (m *Manager) Not(f Ref) Ref {
	if !m.noComp {
		return f ^ compBit
	}
	return m.Ite(f, False, True)
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.Ite(f, m.Not(g), g) }

// Eq returns f ↔ g (exclusive-nor).
func (m *Manager) Eq(f, g Ref) Ref { return m.Ite(f, g, m.Not(g)) }

// Imp returns f → g.
func (m *Manager) Imp(f, g Ref) Ref { return m.Ite(f, g, True) }

// Diff returns f ∧ ¬g.
func (m *Manager) Diff(f, g Ref) Ref { return m.Ite(g, False, f) }

// Nand returns ¬(f ∧ g).
func (m *Manager) Nand(f, g Ref) Ref { return m.Not(m.And(f, g)) }

// Nor returns ¬(f ∨ g).
func (m *Manager) Nor(f, g Ref) Ref { return m.Not(m.Or(f, g)) }

// AndN returns the conjunction of all arguments (True when empty).
func (m *Manager) AndN(fs ...Ref) Ref {
	res := True
	for _, f := range fs {
		res = m.And(res, f)
		if res == False {
			return False
		}
	}
	return res
}

// OrN returns the disjunction of all arguments (False when empty).
func (m *Manager) OrN(fs ...Ref) Ref {
	res := False
	for _, f := range fs {
		res = m.Or(res, f)
		if res == True {
			return True
		}
	}
	return res
}

// Implies reports whether f → g is a tautology, i.e. the state set f is
// contained in g. Thanks to canonicity this is a single ITE plus a
// comparison against True.
func (m *Manager) Implies(f, g Ref) bool { return m.Imp(f, g) == True }

// Disjoint reports whether f ∧ g is unsatisfiable.
func (m *Manager) Disjoint(f, g Ref) bool { return m.And(f, g) == False }
