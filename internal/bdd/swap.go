package bdd

import (
	"sort"
	"time"
)

// In-place adjacent-level swap: the O(two levels) reordering primitive.
//
// Exchanging the variables at levels l and l+1 rewrites only the nodes
// stored in those two levels' subtables. Every node keeps its arena
// index, so every Ref held anywhere — other levels, protected roots,
// registered rewriters, plain locals — stays valid across the swap with
// its denotation unchanged. That is what makes a sift trial cheap: no
// arena rebuild, no root rewriting, just local surgery plus an exact
// update of the per-level live counts.
//
// Write X for the variable at level l and Y for the one at l+1 before
// the swap. For an upper node n = (X; f0, f1):
//
//   - Case A: neither f0 nor f1 tests Y. Then n's function is
//     independent of Y, its expansion is unchanged, and n simply moves
//     to level l+1 keeping its children and its Ref.
//
//   - Case B: some child tests Y. Cofactoring on Y gives
//     n = (Y; (X; f00, f10), (X; f01, f11)), so n is relabeled in
//     place to test Y (staying at level l and keeping its Ref) over two
//     X-children built by mk at level l+1.
//
// Old Y nodes that remain referenced (by nodes above level l or as
// roots) keep their Refs and drop to level l — they test Y and Y now
// lives there. Unreferenced ones are freed; the freeing can cascade to
// deeper levels, which keeps the live count exact for the sift driver.
//
// Canonicity is preserved without cross-checks between the rewritten
// population and the survivors: a rewritten case-B node genuinely
// depends on X (f0 != f1 before the swap), while a surviving Y node
// cannot (its children lie below both levels), so their denotations —
// and hence, by induction over canonical children, their (low, high)
// pairs at level l — always differ. At level l+1 the inner mk calls
// land in the same subtable the case-A nodes were inserted into first,
// so equal X-cofactors are shared rather than duplicated. Case B cannot
// produce an unreduced node: newLow == newHigh would force f0 == f1.
//
// Complement edges survive the swap through mk itself. An upper node's
// stored else edge f0 is plain, so its else-cofactor f00 is plain and
// the rebuilt else child mk(l+1, f00, f10) comes out plain — the
// relabeled node keeps a canonical (non-complemented) else edge without
// any fixup. The then edge f1 (and the then-cofactors f01, f11) may be
// complemented; their signs are pushed through to the extracted
// cofactors and mk's normalization does the rest. Session refcounts are
// indexed by plain node, since f and ¬f are one node.
//
// Liveness during a sift is tracked by a session-scoped refcount array
// (siftState): in-edges of live nodes plus one per protected root and
// per rewriter-held ref. Counts can transiently reach zero and be
// revived within a swap (an inner mk may reuse the structure), so frees
// are deferred to a dead-candidate stack drained at the end of each
// swap.

// siftState is the bookkeeping of one in-place sift session.
type siftState struct {
	rc            []int32  // per-node refcount: in-edges + roots + rewriter refs
	zero          []uint32 // dead candidates: nodes whose refcount hit zero
	upper, lower  []uint32 // detachLevel scratch
	startOrder    []int    // level2var when the session opened
	swaps         uint64   // swaps executed this session
	cachesCleared bool     // op caches dropped (lazily, at the first swap)
	timedOut      bool     // SiftMaxTime expired
}

// bump counts one new reference to f's node (sign-stripped: f and ¬f
// share one count).
func (st *siftState) bump(f Ref) {
	if !IsTerminal(f) {
		st.rc[f&^compBit]++
	}
}

// drop removes one reference to f's node, queuing it for reaping at zero.
func (st *siftState) drop(f Ref) {
	if IsTerminal(f) {
		return
	}
	i := f &^ compBit
	st.rc[i]--
	if st.rc[i] == 0 {
		st.zero = append(st.zero, uint32(i))
	} else if st.rc[i] < 0 {
		panic("bdd: swap refcount underflow")
	}
}

// beginSwapSession builds the refcounts the swaps need. It must run
// right after a GC (every live node reachable, free slots identifiable
// by their terminalLevel sentinel), which SiftNow and Reorder guarantee.
func (m *Manager) beginSwapSession() {
	st := &siftState{
		rc:         make([]int32, len(m.nodes)),
		startOrder: append([]int(nil), m.level2var...),
	}
	for i := 1; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		if n.lvl == terminalLevel { // free slot
			continue
		}
		st.bump(n.low)
		st.bump(n.high)
	}
	for r := range m.roots {
		st.bump(r)
	}
	for _, rw := range m.rewriters {
		rw.fn(func(r Ref) Ref {
			m.checkRef(r)
			st.bump(r)
			return r
		})
	}
	m.sift = st
}

// endSwapSession commits the session. An order change counts as one
// reordering, and if any swap ran every rewriter fires with the identity
// translation: Refs survived the swaps untranslated, but the hook
// contract is that rewriters fire after every committed reorder —
// clients key their own cache invalidation off that signal.
func (m *Manager) endSwapSession() {
	st := m.sift
	m.sift = nil
	if !equalOrder(st.startOrder, m.level2var) {
		m.Stats.Reorderings++
	}
	if st.swaps > 0 {
		for _, rw := range m.rewriters {
			rw.fn(func(r Ref) Ref { return r })
		}
	}
}

// swapMk is mk plus refcount upkeep: a freshly created node contributes
// one in-edge to each child. The caller accounts for its own edge to
// the returned Ref.
func (m *Manager) swapMk(lvl uint32, low, high Ref) Ref {
	before := m.numAlloc
	r := m.mk(lvl, low, high)
	st := m.sift
	if len(st.rc) < len(m.nodes) {
		st.rc = append(st.rc, make([]int32, len(m.nodes)-len(st.rc))...)
	}
	if m.numAlloc != before {
		st.bump(low)
		st.bump(high)
	}
	return r
}

// detachLevel empties level l's subtable into buf and returns it. The
// nodes keep their lvl fields; only the table no longer knows them.
func (m *Manager) detachLevel(l int, buf []uint32) []uint32 {
	st := &m.tables[l]
	for b := range st.buckets {
		for i := st.buckets[b]; i != 0; i = m.nodes[i].next {
			buf = append(buf, i)
		}
		st.buckets[b] = 0
	}
	st.count = 0
	return buf
}

// freeSlot returns node i to the free list. The caller has already
// removed it from its subtable (or detached the whole level).
func (m *Manager) freeSlot(i uint32) {
	m.nodes[i] = node{lvl: terminalLevel, low: False, high: False, next: m.free}
	m.free = i
	m.numFree++
	m.numAlloc--
	m.Stats.NodesFreed++
}

// reapDead frees every queued dead candidate that was not revived,
// cascading through children whose counts reach zero in turn.
func (m *Manager) reapDead() {
	st := m.sift
	for len(st.zero) > 0 {
		i := st.zero[len(st.zero)-1]
		st.zero = st.zero[:len(st.zero)-1]
		if st.rc[i] != 0 || m.nodes[i].lvl == terminalLevel {
			continue // revived by an inner mk, or already freed
		}
		m.unlinkNode(i)
		n := m.nodes[i]
		m.freeSlot(i)
		st.drop(n.low)
		st.drop(n.high)
	}
}

// swapLevels exchanges the variables at levels l and l+1 in place. See
// the file comment for the construction and why it is sound. Requires
// an active swap session.
func (m *Manager) swapLevels(l int) {
	st := m.sift
	if st == nil {
		panic("bdd: swapLevels outside a sift session")
	}
	if l < 0 || l+1 >= len(m.level2var) {
		panic("bdd: swapLevels level out of range")
	}
	if !st.cachesCleared {
		// Freed slots may be recycled under cached Refs, so the op
		// caches go once per session — and only if a swap actually
		// runs; a sift that commits nothing keeps them warm.
		m.clearCaches()
		st.cachesCleared = true
	}
	m.Stats.SiftSwaps++
	st.swaps++

	lvlU, lvlL := uint32(l), uint32(l+1)
	st.upper = m.detachLevel(l, st.upper[:0])
	st.lower = m.detachLevel(l+1, st.lower[:0])

	vU, vL := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = vL, vU
	m.var2level[vU], m.var2level[vL] = l+1, l

	// Pass 1 (case A): upper nodes independent of the lower variable
	// descend to level l+1 unchanged. They go back into that subtable
	// before pass 2 so the rewritten nodes' X-cofactors share them.
	caseB := st.upper[:0] // compacts in place behind the read index
	for _, u := range st.upper {
		n := &m.nodes[u]
		if m.nodes[n.low&^compBit].lvl != lvlL && m.nodes[n.high&^compBit].lvl != lvlL {
			n.lvl = lvlL
			m.insertNode(u)
		} else {
			caseB = append(caseB, u)
		}
	}

	// Pass 2 (case B): rebuild each remaining upper node over its Y
	// cofactors. The node keeps its Ref and level; only its children
	// (and the variable it tests) change.
	for _, u := range caseB {
		n := m.nodes[u] // copy: the arena may grow under swapMk below
		f0, f1 := n.low, n.high
		f00, f01 := f0, f0
		if p := f0 &^ compBit; m.nodes[p].lvl == lvlL {
			s := f0 & compBit
			f00, f01 = m.nodes[p].low^s, m.nodes[p].high^s
		}
		f10, f11 := f1, f1
		if p := f1 &^ compBit; m.nodes[p].lvl == lvlL {
			s := f1 & compBit
			f10, f11 = m.nodes[p].low^s, m.nodes[p].high^s
		}
		newLow := m.swapMk(lvlL, f00, f10)
		newHigh := m.swapMk(lvlL, f01, f11)
		if newLow == newHigh {
			panic("bdd: adjacent swap produced an unreduced node")
		}
		st.bump(newLow)
		st.bump(newHigh)
		st.drop(f0)
		st.drop(f1)
		nd := &m.nodes[u]
		nd.low, nd.high = newLow, newHigh
		m.insertNode(u)
	}

	// Lower pass: still-referenced Y nodes rise to level l keeping
	// their Refs; dead ones are freed (they were never reinserted).
	for _, y := range st.lower {
		if st.rc[y] > 0 {
			m.nodes[y].lvl = lvlU
			m.insertNode(y)
		} else {
			n := m.nodes[y]
			m.freeSlot(y)
			st.drop(n.low)
			st.drop(n.high)
		}
	}
	m.reapDead()
}

// swapToOrder bubbles the variable that belongs at each level up to it
// (order[i] is the variable for level i): one adjacent swap per pair of
// variables the two orders rank differently. Requires an active swap
// session.
func (m *Manager) swapToOrder(order []int) {
	for l, v := range order {
		for k := m.var2level[v]; k > l; k-- {
			m.swapLevels(k - 1)
		}
	}
}

// exchangeAdjacentBlocks swaps the adjacent level ranges [s, s+w1) and
// [s+w1, s+w1+w2) by bubbling each level of the second block up through
// the first: w1*w2 adjacent swaps.
func (m *Manager) exchangeAdjacentBlocks(s, w1, w2 int) {
	for j := 0; j < w2; j++ {
		for k := s + w1 + j; k > s+j; k-- {
			m.swapLevels(k - 1)
		}
	}
}

// siftPassSwap sifts the blocks in decreasing order of contribution and
// returns the resulting live-node count. Contribution is read off the
// per-level counts — O(levels), no arena scan.
func (m *Manager) siftPassSwap(opts *ReorderOptions, deadline time.Time) int {
	blocks := m.blockOrder()
	if len(blocks) <= 1 {
		return m.numAlloc
	}
	contrib := make([]int, len(blocks))
	for bi, b := range blocks {
		for _, v := range b {
			contrib[bi] += m.tables[m.var2level[v]].count
		}
	}
	byContrib := make([]int, len(blocks))
	for i := range byContrib {
		byContrib[i] = i
	}
	sort.Slice(byContrib, func(i, j int) bool { return contrib[byContrib[i]] > contrib[byContrib[j]] })
	limit := len(byContrib)
	if opts.MaxBlocks > 0 && opts.MaxBlocks < limit {
		limit = opts.MaxBlocks
	}
	for _, bi := range byContrib[:limit] {
		if contrib[bi] == 0 || m.sift.timedOut {
			continue
		}
		m.siftBlockSwap(blocks[bi][0], opts, deadline)
	}
	return m.numAlloc
}

// siftBlockSwap walks the block (identified by its lead variable) to
// the nearer end of the order and then the far end via adjacent block
// exchanges, measuring the live count after each position, and finishes
// at the best position seen. Directions abort early past the growth
// budget; the timeout is honored between swap runs, but the final walk
// back to the best position always completes.
func (m *Manager) siftBlockSwap(lead int, opts *ReorderOptions, deadline time.Time) {
	cur := m.blockOrder()
	if len(cur) <= 1 {
		return
	}
	pos := -1
	for i, b := range cur {
		if b[0] == lead {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	widths := make([]int, len(cur))
	start := 0 // top level of the sifted block
	for i, b := range cur {
		widths[i] = len(b)
		if i < pos {
			start += len(b)
		}
	}
	lo, hi := 0, len(cur)-1
	if opts.Window > 0 {
		if l := pos - opts.Window; l > lo {
			lo = l
		}
		if h := pos + opts.Window; h < hi {
			hi = h
		}
	}
	bestSize := m.numAlloc
	bestPos := pos
	budget := growthBudget(opts, bestSize)

	moveDown := func() {
		w, w2 := widths[pos], widths[pos+1]
		m.exchangeAdjacentBlocks(start, w, w2)
		widths[pos], widths[pos+1] = w2, w
		start += w2
		pos++
	}
	moveUp := func() {
		w, w2 := widths[pos], widths[pos-1]
		m.exchangeAdjacentBlocks(start-w2, w2, w)
		widths[pos-1], widths[pos] = w, w2
		start -= w2
		pos--
	}
	outOfTime := func() bool {
		if m.sift.timedOut {
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			m.sift.timedOut = true
			return true
		}
		return false
	}
	walk := func(down bool, until int) {
		for pos != until {
			if outOfTime() {
				return
			}
			if down {
				moveDown()
			} else {
				moveUp()
			}
			m.Stats.SiftTrials++
			if m.numAlloc < bestSize {
				bestSize = m.numAlloc
				bestPos = pos
				budget = growthBudget(opts, bestSize)
			} else if m.numAlloc > budget {
				m.Stats.SiftAborts++
				return
			}
		}
	}
	if pos-lo <= hi-pos {
		walk(false, lo)
		walk(true, hi)
	} else {
		walk(true, hi)
		walk(false, lo)
	}
	for pos > bestPos {
		moveUp()
	}
	for pos < bestPos {
		moveDown()
	}
}
