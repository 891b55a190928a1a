package bdd

// Generalized cofactor (the "constrain" operator of Coudert/Madre) and
// the sibling "restrict" minimizer. Constrain(f, c) returns a function
// that agrees with f on every assignment satisfying c and is chosen to
// shrink the BDD elsewhere; it is the standard tool for image
// computations restricted to care sets:
//
//	f|c  with  (f ⇓ c) ∧ c  =  f ∧ c
//
// Minimize (a.k.a. restrict) is the variant that skips variables absent
// from f's support, which avoids introducing new variables and often
// minimizes better in practice.

// Constrain computes the generalized cofactor f ⇓ c. c must be
// satisfiable.
func (m *Manager) Constrain(f, c Ref) Ref {
	m.checkRef(f)
	m.checkRef(c)
	if c == False {
		panic("bdd: Constrain with unsatisfiable care set")
	}
	return m.constrain(f, c)
}

const opConstrainTag = opConstrain

func (m *Manager) constrain(f, c Ref) Ref {
	switch {
	case c == True, IsTerminal(f):
		return f
	case f == c:
		return True
	}
	if !m.noComp && f == c^compBit {
		// f is false on all of the care set.
		return False
	}
	if res, ok := m.binCacheGet(opConstrainTag, f, c); ok {
		return res
	}
	lf, lc := m.level(f), m.level(c)
	top := lf
	if lc < top {
		top = lc
	}
	var res Ref
	if lc == top {
		c0, c1 := m.low(c), m.high(c)
		switch {
		case c0 == False:
			// care set forces the variable true
			f1 := f
			if lf == top {
				f1 = m.high(f)
			}
			res = m.constrain(f1, c1)
		case c1 == False:
			f0 := f
			if lf == top {
				f0 = m.low(f)
			}
			res = m.constrain(f0, c0)
		default:
			f0, f1 := m.cofactors(f, lf, top)
			low := m.constrain(f0, c0)
			high := m.constrain(f1, c1)
			res = m.mk(top, low, high)
		}
	} else {
		low := m.constrain(m.low(f), c)
		high := m.constrain(m.high(f), c)
		res = m.mk(top, low, high)
	}
	m.binCachePut(opConstrainTag, f, c, res)
	return res
}

// Minimize computes the "restrict" heuristic minimization of f with
// respect to the care set c: a function that agrees with f on c and
// whose BDD never mentions variables outside f's support.
func (m *Manager) Minimize(f, c Ref) Ref {
	m.checkRef(f)
	m.checkRef(c)
	if c == False {
		panic("bdd: Minimize with unsatisfiable care set")
	}
	return m.minimize(f, c)
}

// opMinimize shares the binop cache with a distinct tag.
const opMinimize uint32 = opPermuteBase + 1<<16

func (m *Manager) minimize(f, c Ref) Ref {
	if c == True || IsTerminal(f) {
		return f
	}
	if res, ok := m.binCacheGet(opMinimize, f, c); ok {
		return res
	}
	lf, lc := m.level(f), m.level(c)
	var res Ref
	if lc < lf {
		// c tests a variable f does not depend on: existentially drop it
		// instead of introducing it.
		cc := m.iteSeq(m.low(c), True, m.high(c)) // c0 ∨ c1
		res = m.minimize(f, cc)
	} else if lc == lf {
		c0, c1 := m.low(c), m.high(c)
		switch {
		case c0 == False:
			res = m.minimize(m.high(f), c1)
		case c1 == False:
			res = m.minimize(m.low(f), c0)
		default:
			low := m.minimize(m.low(f), c0)
			high := m.minimize(m.high(f), c1)
			res = m.mk(lf, low, high)
		}
	} else {
		low := m.minimize(m.low(f), c)
		high := m.minimize(m.high(f), c)
		res = m.mk(lf, low, high)
	}
	m.binCachePut(opMinimize, f, c, res)
	return res
}
