package bdd

import (
	"fmt"
	"sort"
	"time"
)

// Variable reordering.
//
// There is one reorder engine: in-place adjacent-level swaps (swap.go).
// A swap touches only the nodes at the two swapped levels and keeps
// every live node at its arena index, so Refs survive a reorder. Sifting
// (SiftNow, and the growth-triggered EnableAutoReorder) walks blocks
// through the order by swaps; an explicit Reorder(order) bubbles each
// variable up to its target level.
//
// What makes reordering *dynamic* (usable mid-computation rather than
// only offline) is the live-root registry: long-lived holders of Refs —
// symbolic structures, checkers, saved witness rings — register a
// rewriter callback (OnReorder) or plain pointers (RegisterRefs).
// Registered refs are GC roots, and every reorder collects garbage
// first, so registration is what keeps a Ref alive across a reorder.
// After every committed reorder each rewriter fires with a translation
// function, which is the identity since swaps move no node: the hook
// still fires so downstream caches invalidate on the same schedule.
//
// Sifting moves one block at a time: each GroupVars block (typically a
// current/next state-variable pair) travels as a unit, tried at every
// candidate position with the placement minimizing the live-node count
// kept. A walk that grows the arena past MaxGrowth times the best size
// so far stops in that direction and the block returns to its best
// position.
//
// Automatic reordering is growth-triggered: ReorderIfNeeded — called at
// safe points where every needed Ref is registered or protected — sifts
// when the live-node count exceeds GrowthTrigger times the post-last-sift
// size.

// rewriter is one registered reorder hook. The callback must be
// deterministic: it is invoked several times per reorder (to mark its
// refs during the collection, to count them for the swap session, then
// to commit), and every invocation must visit the same refs.
type rewriter struct {
	id int
	fn func(translate func(Ref) Ref)
}

// OnReorder registers a rewriter callback and returns an id for
// Unregister. After every committed reorder the callback is invoked with
// a translation function and must pass every Ref its owner retains
// through it, storing the results back. The translation is currently the
// identity (swaps keep every Ref), so the call is the owner's signal to
// drop order-dependent caches. The refs the callback visits are
// also marked during garbage collection, so they need no separate
// Protect. The callback must not invoke manager operations.
func (m *Manager) OnReorder(fn func(translate func(Ref) Ref)) int {
	m.nextHookID++
	m.rewriters = append(m.rewriters, rewriter{id: m.nextHookID, fn: fn})
	return m.nextHookID
}

// RegisterRefs registers plain Ref pointers: after every reorder each
// *p is rewritten in place, and the referenced nodes survive GC. Returns
// an id for Unregister. Typical use is protecting a fixpoint loop's
// local variables across safe points.
func (m *Manager) RegisterRefs(ps ...*Ref) int {
	return m.OnReorder(func(translate func(Ref) Ref) {
		for _, p := range ps {
			*p = translate(*p)
		}
	})
}

// Unregister removes a rewriter previously installed with OnReorder or
// RegisterRefs. Unknown ids are ignored.
func (m *Manager) Unregister(id int) {
	for i, rw := range m.rewriters {
		if rw.id == id {
			m.rewriters = append(m.rewriters[:i], m.rewriters[i+1:]...)
			return
		}
	}
}

// GroupVars declares that the given variables form one sifting block:
// they are kept adjacent and moved as a unit. The standard use is one
// call per state variable with its current/next pair — splitting such a
// pair explodes the transition relation, so sifting must never consider
// it. A variable may belong to at most one group.
func (m *Manager) GroupVars(vars ...int) {
	if len(vars) == 0 {
		return
	}
	for _, v := range vars {
		if v < 0 || v >= m.NumVars() {
			panic(fmt.Sprintf("bdd: GroupVars: variable %d out of range", v))
		}
		for _, g := range m.groups {
			for _, w := range g {
				if v == w {
					panic(fmt.Sprintf("bdd: GroupVars: variable %d already grouped", v))
				}
			}
		}
	}
	m.groups = append(m.groups, append([]int(nil), vars...))
}

// Groups returns a copy of the registered sifting blocks.
func (m *Manager) Groups() [][]int {
	out := make([][]int, len(m.groups))
	for i, g := range m.groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// ReorderOptions tunes the automatic sifting policy.
type ReorderOptions struct {
	// GrowthTrigger: sift when live nodes exceed this multiple of the
	// post-last-sift size (default 2.0).
	GrowthTrigger float64
	// MinNodes: never auto-sift below this many live nodes (default 16k).
	MinNodes int
	// MaxGrowth: stop walking a block in one direction once the live-node
	// count exceeds this multiple of the best size found so far
	// (default 1.2).
	MaxGrowth float64
	// MaxPasses bounds the converging sift passes per event (default 3).
	MaxPasses int
	// MinImprove: stop passes early once a pass shrinks the live count by
	// less than this fraction (default 0.03).
	MinImprove float64
	// MaxBlocks: sift only the top-contributing blocks per pass
	// (0 = all blocks).
	MaxBlocks int
	// Window: try positions at most this far from a block's current one
	// (0 = every position).
	Window int
	// SiftMaxTime bounds the wall time of one sift event. It is checked
	// at swap granularity: when the budget runs out the block being
	// sifted still returns to its best position, the event ends cleanly,
	// and Stats.SiftTimeouts is bumped. 0 = no bound.
	SiftMaxTime time.Duration
}

// DefaultReorderOptions returns the default automatic-sifting policy.
func DefaultReorderOptions() ReorderOptions {
	return ReorderOptions{
		GrowthTrigger: 2.0,
		MinNodes:      1 << 14,
		MaxGrowth:     1.2,
		MaxPasses:     3,
		MinImprove:    0.03,
	}
}

func (o *ReorderOptions) fillDefaults() {
	d := DefaultReorderOptions()
	if o.GrowthTrigger <= 1 {
		o.GrowthTrigger = d.GrowthTrigger
	}
	if o.MinNodes <= 0 {
		o.MinNodes = d.MinNodes
	}
	if o.MaxGrowth <= 1 {
		o.MaxGrowth = d.MaxGrowth
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = d.MaxPasses
	}
	if o.MinImprove <= 0 {
		o.MinImprove = d.MinImprove
	}
}

// EnableAutoReorder turns on growth-triggered sifting. A nil opts uses
// DefaultReorderOptions; zero fields of a non-nil opts are filled with
// the defaults (MaxBlocks and Window keep 0 = unlimited).
func (m *Manager) EnableAutoReorder(opts *ReorderOptions) {
	o := DefaultReorderOptions()
	if opts != nil {
		o = *opts
		o.fillDefaults()
	}
	m.reorderOpts = o
	m.autoReorder = true
	m.lastSiftSize = m.numAlloc
	if m.lastSiftSize < 1 {
		m.lastSiftSize = 1
	}
}

// DisableAutoReorder turns growth-triggered sifting off.
func (m *Manager) DisableAutoReorder() { m.autoReorder = false }

// AutoReorderEnabled reports whether growth-triggered sifting is on.
func (m *Manager) AutoReorderEnabled() bool { return m.autoReorder }

// PauseAutoReorder suspends growth-triggered sifting and returns the
// function that resumes it. Calls nest. Use around code that holds
// unregistered Refs across operations — witness walks, trace validation.
func (m *Manager) PauseAutoReorder() func() {
	m.reorderPause++
	return func() { m.reorderPause-- }
}

// ReorderIfNeeded is the safe-point check: if automatic reordering is
// enabled, not paused, and the live-node count has grown past
// GrowthTrigger times the post-last-sift size, it runs a sift and
// reports true. Callers must ensure every Ref they still need is
// protected or registered before calling.
func (m *Manager) ReorderIfNeeded() bool {
	if !m.autoReorder || m.reorderPause > 0 || m.reordering {
		return false
	}
	if m.par != nil && m.par.inSection {
		// Parallel workers share the arena right now; sifting waits for
		// the fork-join section boundary (the stop-the-world safe point).
		return false
	}
	if m.numAlloc < m.reorderOpts.MinNodes {
		return false
	}
	if float64(m.numAlloc) < m.reorderOpts.GrowthTrigger*float64(m.lastSiftSize) {
		return false
	}
	m.Stats.AutoReorders++
	m.SiftNow()
	return true
}

// Reorder moves the manager to the new variable order (order[i] is the
// variable to be placed at level i) by adjacent-level swaps: the
// variable that belongs at each level is bubbled up to it. Swaps keep
// every live node at its arena index, so the returned roots equal the
// given ones, and protected roots and registered refs stay valid too.
// A collection runs first (the roots are registered for its duration),
// so any other unprotected Ref is invalidated. An order that already
// matches returns at once and touches nothing. Registered Permutations
// remain valid because they are expressed over variable indices, not
// levels.
func (m *Manager) Reorder(order []int, roots []Ref) []Ref {
	m.validateOrder(order)
	for _, r := range roots {
		m.checkRef(r)
	}
	out := append([]Ref(nil), roots...)
	if equalOrder(order, m.level2var) {
		return out
	}
	if m.par != nil && m.par.inSection {
		panic("bdd: Reorder inside a parallel section")
	}
	defer m.Unregister(m.registerSlice(out))
	m.GC()
	m.beginSwapSession()
	m.swapToOrder(order)
	m.endSwapSession()
	return out
}

// registerSlice registers every element of rs with the reorder registry
// and returns the id for Unregister.
func (m *Manager) registerSlice(rs []Ref) int {
	return m.OnReorder(func(translate func(Ref) Ref) {
		for i := range rs {
			rs[i] = translate(rs[i])
		}
	})
}

func (m *Manager) validateOrder(order []int) {
	if len(order) != m.NumVars() {
		panic("bdd: order length mismatch")
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			panic("bdd: order is not a permutation of the variables")
		}
		seen[v] = true
	}
}

// Sift runs converging sifting passes over the manager and returns the
// given roots, which are registered for the duration. Like every other
// protected or registered Ref they survive the sift unchanged. Any
// other Ref is invalidated (a collection runs first).
func (m *Manager) Sift(roots []Ref) []Ref {
	out := append([]Ref(nil), roots...)
	if m.NumVars() <= 1 {
		return out
	}
	if len(out) > 0 {
		defer m.Unregister(m.registerSlice(out))
	}
	m.SiftNow()
	return out
}

// SiftNow runs converging block-sifting passes, in which every placement
// trial is a run of in-place swaps, until the improvement drops below
// MinImprove or MaxPasses is reached. Garbage is collected first, so
// every Ref the caller needs must be protected or registered.
func (m *Manager) SiftNow() {
	if m.reordering || m.NumVars() <= 1 {
		return
	}
	if m.par != nil && m.par.inSection {
		return // safe point: never restructure under live parallel workers
	}
	m.reordering = true
	defer func() { m.reordering = false }()
	start := time.Now()
	m.GC()
	before := m.numAlloc
	opts := m.reorderOpts
	var deadline time.Time
	if opts.SiftMaxTime > 0 {
		deadline = time.Now().Add(opts.SiftMaxTime)
	}
	m.beginSwapSession()
	// Force every group's variables adjacent, so blocks are contiguous
	// level ranges from here on.
	m.swapToOrder(flattenBlocks(m.blockOrder()))
	size := m.numAlloc
	for pass := 0; pass < opts.MaxPasses; pass++ {
		m.Stats.SiftPasses++
		prev := size
		size = m.siftPassSwap(&opts, deadline)
		if m.sift.timedOut || prev-size < int(opts.MinImprove*float64(prev)) {
			break
		}
	}
	if m.sift.timedOut {
		m.Stats.SiftTimeouts++
	}
	m.endSwapSession()
	m.lastSiftSize = m.numAlloc
	m.Stats.ReorderTime += time.Since(start)
	m.Stats.ReorderSavedNodes += int64(before - m.numAlloc)
}

// blockOrder returns the sifting blocks in current level order: each
// group one block (members sorted by level), every ungrouped variable a
// singleton.
func (m *Manager) blockOrder() [][]int {
	groupOf := make(map[int]int)
	for gi, g := range m.groups {
		for _, v := range g {
			groupOf[v] = gi
		}
	}
	emitted := make(map[int]bool)
	var blocks [][]int
	for _, v := range m.level2var {
		gi, grouped := groupOf[v]
		if !grouped {
			blocks = append(blocks, []int{v})
			continue
		}
		if emitted[gi] {
			continue
		}
		emitted[gi] = true
		g := append([]int(nil), m.groups[gi]...)
		sort.Slice(g, func(i, j int) bool { return m.var2level[g[i]] < m.var2level[g[j]] })
		blocks = append(blocks, g)
	}
	return blocks
}

func flattenBlocks(blocks [][]int) []int {
	var out []int
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func equalOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func growthBudget(opts *ReorderOptions, size int) int {
	return int(opts.MaxGrowth*float64(size)) + 64
}
