package bdd

// Shared-memory parallel evaluation, in the spirit of Sylvan's multi-core
// decision diagrams (van Dijk & van de Pol, TACAS 2015): one arena, one
// unique table, one computed cache shared by every worker, so a *single*
// big operation parallelizes instead of sharding whole subproblems across
// copied arenas.
//
// There is one recursion per operation — ite3 (apply.go), exists and
// andExists (quant.go) — and it takes an evaluation context. A nil
// *parCtx is the sequential context: the exact direct-mapped caches,
// plain mk and the Stats counters; it never forks, never fails, and
// allocates nothing beyond the nodes it creates. With ParallelWorkers
// <= 1 every operation runs in it. A non-nil context evaluates inside a
// parallel section with the lossy caches, parMk's striped inserts and
// per-context counters. Canonicity makes the two contexts easy to check
// against each other: a parallel operation returns the *same Ref* the
// sequential one would, because the shared unique table admits exactly
// one node per (level, low, high) triple no matter which goroutine asks
// first. The independent oracle the differential tests use on top of
// that is pointwise Eval/SatCount plus CheckInvariants.
//
// Execution model: fork-join sections. A parallel operation (or a batch
// of independent jobs, see RunParallel) runs inside a *section*; within
// it the recursion hands one cofactor subproblem to a fresh goroutine
// (parCtx.fork) while the fork depth and the global in-flight count stay
// under bounds derived from the worker budget, and the Go runtime's
// work-stealing scheduler distributes the resulting subtasks over the
// machine (this is the "work-stealing pool" of the design: we
// deliberately lean on the runtime's per-P deques instead of
// hand-rolling them). No worker outlives its section, so between
// sections the manager is single-threaded: garbage collection and
// dynamic reordering run in those gaps, which is the stop-the-world
// safe point the reordering engine requires — and
// GC()/ReorderIfNeeded()/SiftNow() are additionally hard no-ops while a
// section is in flight.
//
// Memory model inside a section (see DESIGN.md for the long form):
//
//   - node fields (lvl, low, high) are immutable once a node is
//     published; the only mutable per-node field is the unique-table
//     chain pointer (next), which is read and written exclusively under
//     the owning level's lock;
//   - the unique table is striped per level: one mutex per level guards
//     that level's buckets, counts and chains (an adjacent-level swap
//     moves whole subtables between levels, so the stripes belong to the
//     level *positions*, not to the subtable values — and swaps only run
//     between sections anyway);
//   - the arena slice header never changes inside a section: the
//     coordinator pre-extends the backing array before workers start,
//     hands fresh slots and free-list blocks to per-goroutine allocation
//     contexts under one allocator lock, and when the headroom runs out
//     the operation aborts cleanly, every worker joins, the coordinator
//     grows the arena sequentially and retries (subresults already
//     published to the table and cache make the retry cheap);
//   - the computed caches are lossy and lock-free: fixed-size arrays of
//     seqlock entries (an atomic sequence word brackets two atomic
//     payload words; writers claim a slot by CAS to an odd sequence,
//     readers reject torn or in-progress entries), tagged with a cache
//     generation so clearCaches invalidates every entry by bumping one
//     counter instead of scanning. A lost or dropped entry only costs a
//     recomputation — the unique table, not the cache, is what makes
//     results canonical.

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// parCacheSize is the per-operation parallel computed-cache size.
	parCacheSize = 1 << 16
	// parBlockSize is the number of node slots handed to a goroutine's
	// allocation context per refill of the shared allocator.
	parBlockSize = 256
	// defaultParMinNodes gates parallel sections: operations rooted over
	// fewer live nodes than this run sequentially (forking goroutines
	// under a few thousand nodes costs more than the recursion itself).
	defaultParMinNodes = 1 << 12
)

// parEntry is one lossy computed-cache slot. seq holds the cache
// generation in its upper 32 bits and a write sequence in the lower 32
// (odd = a writer holds the slot); a and b are the packed key/result
// payload. All fields are accessed atomically, so readers and writers
// never race; a torn read is detected by the sequence re-check and
// treated as a miss.
type parEntry struct {
	seq  atomic.Uint64
	a, b atomic.Uint64
}

// parCtx is one goroutine's evaluation context inside a section:
// private allocation blocks plus local statistics counters, folded into
// the manager's totals when the section ends. Contexts are pooled and
// reused across forks and sections; a context is only ever used by one
// goroutine at a time.
type parCtx struct {
	m  *Manager
	ps *parState

	// freeBlock holds node slots taken off the manager free list;
	// [next, end) is a block of fresh (never-used) arena slots.
	freeBlock []uint32
	next, end uint32

	// Local statistics, folded by parEnd.
	allocated    uint64
	iteCalls     uint64
	cacheLookups uint64
	cacheHits    uint64
	aexCalls     uint64
	aexLookups   uint64
	aexHits      uint64
	forks        uint64
}

// parState is the parallel engine attached to a Manager by
// SetParallelWorkers. Coordinator-owned fields (inSection, cursor,
// limit) are only touched between or at the boundaries of sections.
type parState struct {
	workers   int
	forkDepth int32 // fork while recursion depth is below this
	forkCap   int32 // global bound on in-flight forked subtasks
	minNodes  int   // granularity gate for parallel sections

	// levelMu[l] guards level l's subtable: buckets, mask, count and
	// every chained node's next pointer.
	levelMu []sync.Mutex

	// arenaMu guards the m.nodes slice *header* against concurrent
	// observers (CheckInvariantsConcurrent). Workers never take it: the
	// header is frozen while they run, which is the point.
	arenaMu sync.RWMutex

	// Shared allocator: fresh arena slots [cursor, limit) plus the
	// manager free list, handed out in blocks under allocMu.
	allocMu   sync.Mutex
	cursor    uint32
	limit     uint32
	exhausted atomic.Bool

	inSection bool // coordinator-owned; true while a section runs

	// Lossy computed caches and their generation tag.
	gen atomic.Uint64
	ite []parEntry
	bin []parEntry
	aex []parEntry

	inflight     atomic.Int32
	peakInFlight atomic.Int32

	ctxMu   sync.Mutex
	all     []*parCtx // every context ever minted (accounted by parEnd)
	freeCtx []*parCtx
}

// SetParallelWorkers configures the shared-memory parallel engine: big
// Ite/Exists/AndExists calls (and RunParallel batches) evaluate their
// recursion on up to n goroutines sharing this manager's arena, unique
// table and a lossy computed cache. n <= 1 disables the engine; the
// sequential path is then bit-for-bit the single-threaded
// implementation. The setting may be changed at any time between
// operations.
func (m *Manager) SetParallelWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if m.par == nil {
		if n == 1 {
			return
		}
		m.par = &parState{
			minNodes: defaultParMinNodes,
			ite:      make([]parEntry, parCacheSize),
			bin:      make([]parEntry, parCacheSize),
			aex:      make([]parEntry, parCacheSize),
			levelMu:  make([]sync.Mutex, len(m.tables)),
		}
	}
	ps := m.par
	ps.workers = n
	// Fork both cofactor branches while depth < forkDepth, giving about
	// 2^forkDepth leaf subtasks — enough to keep n cores fed through
	// imbalance without drowning the scheduler in goroutines.
	ps.forkDepth = int32(bits.Len(uint(n-1)) + 2)
	ps.forkCap = int32(4 * n)
	if len(ps.levelMu) < len(m.tables) {
		ps.levelMu = append(ps.levelMu, make([]sync.Mutex, len(m.tables)-len(ps.levelMu))...)
	}
}

// ParallelWorkers returns the configured parallel worker budget (1 when
// the engine is disabled).
func (m *Manager) ParallelWorkers() int {
	if m.par == nil || m.par.workers < 1 {
		return 1
	}
	return m.par.workers
}

// SetParallelGranularity sets the minimum number of live nodes at or
// below an operation's top level for the operation to open a parallel
// section (smaller operations stay sequential). Only meaningful after
// SetParallelWorkers; primarily a testing knob.
func (m *Manager) SetParallelGranularity(minNodes int) {
	if m.par != nil && minNodes > 0 {
		m.par.minNodes = minNodes
	}
}

// parallelActive reports whether top-level operations may open parallel
// sections right now.
func (m *Manager) parallelActive() bool {
	ps := m.par
	return ps != nil && ps.workers > 1 && !ps.inSection && !m.reordering
}

// parGate decides whether an operation rooted at the given refs is big
// enough to be worth a parallel section: the live-node population at or
// below the highest operand root must reach the granularity threshold.
// O(levels), using the exact per-level counts the subtables maintain.
func (m *Manager) parGate(refs ...Ref) bool {
	if !m.parallelActive() {
		return false
	}
	ps := m.par
	if m.numAlloc < ps.minNodes {
		return false
	}
	top := terminalLevel
	for _, f := range refs {
		if IsTerminal(f) {
			continue
		}
		if l := m.level(f); l < top {
			top = l
		}
	}
	if top == terminalLevel {
		return false
	}
	below := 0
	for l := int(top); l < len(m.tables); l++ {
		below += m.tables[l].count
		if below >= ps.minNodes {
			return true
		}
	}
	return false
}

// ——— sections ———

// parBegin freezes the arena for a section: the backing array is
// pre-extended so no worker ever appends, the fresh-slot cursor is set
// and the exhaustion flag cleared. Coordinator only.
func (m *Manager) parBegin() {
	ps := m.par
	headroom := m.numFree + (cap(m.nodes) - len(m.nodes))
	if min := parBlockSize * (ps.workers + 1); headroom < min {
		m.parGrow(min - headroom)
	}
	ps.arenaMu.Lock()
	base := len(m.nodes)
	m.nodes = m.nodes[:cap(m.nodes)]
	ps.arenaMu.Unlock()
	ps.cursor = uint32(base)
	ps.limit = uint32(len(m.nodes))
	ps.exhausted.Store(false)
	ps.inSection = true
}

// parEnd closes a section after every worker has joined: each context's
// unused slots return to the free list, the untouched fresh region is
// chained as free, and the local counters fold into the manager totals,
// restoring the sequential invariant numAlloc + numFree == len(nodes).
// Coordinator only.
func (m *Manager) parEnd() {
	ps := m.par
	for _, c := range ps.all {
		for _, idx := range c.freeBlock {
			m.parFreeSlot(idx)
		}
		c.freeBlock = c.freeBlock[:0]
		for idx := c.next; idx < c.end; idx++ {
			m.parFreeSlot(idx)
		}
		c.next, c.end = 0, 0
		m.numAlloc += int(c.allocated)
		m.Stats.ITECalls += c.iteCalls
		m.Stats.CacheLookups += c.cacheLookups
		m.Stats.CacheHits += c.cacheHits
		m.Stats.AndExistsCalls += c.aexCalls
		m.Stats.AndExistsLookups += c.aexLookups
		m.Stats.AndExistsHits += c.aexHits
		m.Stats.ParallelForks += c.forks
		c.allocated, c.iteCalls, c.cacheLookups, c.cacheHits = 0, 0, 0, 0
		c.aexCalls, c.aexLookups, c.aexHits, c.forks = 0, 0, 0, 0
	}
	for idx := ps.cursor; idx < ps.limit; idx++ {
		m.parFreeSlot(idx)
	}
	ps.cursor, ps.limit = 0, 0
	if p := int(ps.peakInFlight.Load()); p > m.Stats.ParallelPeakInFlight {
		m.Stats.ParallelPeakInFlight = p
	}
	ps.peakInFlight.Store(0)
	ps.inSection = false
	m.Stats.ParallelSections++
}

// parFreeSlot chains one node slot onto the free list in the standard
// freed-node form. Free-list slots handed out during the section were
// removed from numFree at handout and fresh slots were never counted,
// so chaining always increments.
func (m *Manager) parFreeSlot(idx uint32) {
	m.nodes[idx] = node{lvl: terminalLevel, low: False, high: False, next: m.free}
	m.free = idx
	m.numFree++
}

// parGrow extends the arena capacity by at least extra slots.
// Coordinator only, outside sections.
func (m *Manager) parGrow(extra int) {
	need := len(m.nodes) + extra
	if need <= cap(m.nodes) {
		return
	}
	newCap := 2 * cap(m.nodes)
	if newCap < need {
		newCap = need
	}
	ps := m.par
	ps.arenaMu.Lock()
	nn := make([]node, len(m.nodes), newCap)
	copy(nn, m.nodes)
	m.nodes = nn
	ps.arenaMu.Unlock()
}

// parGrowAmount sizes the growth between an exhausted section and its
// retry.
func (m *Manager) parGrowAmount() int {
	g := len(m.nodes) / 2
	if min := parBlockSize * 4 * m.par.workers; g < min {
		g = min
	}
	return g
}

func (ps *parState) getCtx(m *Manager) *parCtx {
	ps.ctxMu.Lock()
	var c *parCtx
	if n := len(ps.freeCtx); n > 0 {
		c = ps.freeCtx[n-1]
		ps.freeCtx = ps.freeCtx[:n-1]
	} else {
		c = &parCtx{m: m, ps: ps}
		ps.all = append(ps.all, c)
	}
	ps.ctxMu.Unlock()
	return c
}

func (ps *parState) putCtx(c *parCtx) {
	ps.ctxMu.Lock()
	ps.freeCtx = append(ps.freeCtx, c)
	ps.ctxMu.Unlock()
}

// ——— allocation ———

// alloc hands out one node slot from the context's private blocks,
// refilling from the shared allocator when they run dry. ok=false means
// the section's arena headroom is exhausted: the operation must abort
// so the coordinator can grow the arena and retry.
func (c *parCtx) alloc() (uint32, bool) {
	if n := len(c.freeBlock); n > 0 {
		idx := c.freeBlock[n-1]
		c.freeBlock = c.freeBlock[:n-1]
		c.allocated++
		return idx, true
	}
	if c.next < c.end {
		idx := c.next
		c.next++
		c.allocated++
		return idx, true
	}
	return c.refill()
}

func (c *parCtx) refill() (uint32, bool) {
	ps := c.ps
	if ps.exhausted.Load() {
		return 0, false
	}
	m := c.m
	ps.allocMu.Lock()
	for len(c.freeBlock) < parBlockSize && m.free != 0 {
		idx := m.free
		m.free = m.nodes[idx].next
		m.numFree--
		c.freeBlock = append(c.freeBlock, idx)
	}
	if len(c.freeBlock) == 0 && ps.cursor < ps.limit {
		c.next = ps.cursor
		c.end = c.next + parBlockSize
		if c.end > ps.limit {
			c.end = ps.limit
		}
		ps.cursor = c.end
	}
	ps.allocMu.Unlock()
	if n := len(c.freeBlock); n > 0 {
		idx := c.freeBlock[n-1]
		c.freeBlock = c.freeBlock[:n-1]
		c.allocated++
		return idx, true
	}
	if c.next < c.end {
		idx := c.next
		c.next++
		c.allocated++
		return idx, true
	}
	ps.exhausted.Store(true)
	return 0, false
}

// ——— concurrent unique table ———

// parMk is mk for parallel sections: the same reduction and
// complement-edge canonicalization, hash-consed through the striped
// table.
func (m *Manager) parMk(c *parCtx, lvl uint32, low, high Ref) (Ref, bool) {
	if low == high {
		return low, true
	}
	if !m.noComp && low&compBit != 0 {
		r, ok := m.parMkRaw(c, lvl, low^compBit, high^compBit)
		return r ^ compBit, ok
	}
	return m.parMkRaw(c, lvl, low, high)
}

// parMkRaw hash-conses the exact triple under the level's stripe lock.
// A freshly allocated node is fully initialized before it is published
// into the bucket chain, so its lvl/low/high fields are immutable to
// every observer; only next ever changes afterwards, always under this
// same lock.
func (m *Manager) parMkRaw(c *parCtx, lvl uint32, low, high Ref) (Ref, bool) {
	ps := c.ps
	mu := &ps.levelMu[lvl]
	mu.Lock()
	st := &m.tables[lvl]
	b := hash2(low, high, st.mask)
	for i := st.buckets[b]; i != 0; i = m.nodes[i].next {
		n := &m.nodes[i]
		if n.low == low && n.high == high {
			mu.Unlock()
			return Ref(i), true
		}
	}
	idx, ok := c.alloc()
	if !ok {
		mu.Unlock()
		return False, false
	}
	m.nodes[idx] = node{lvl: lvl, low: low, high: high, next: st.buckets[b]}
	st.buckets[b] = idx
	st.count++
	if st.count > len(st.buckets)*3 {
		m.growSubtable(st) // touches only this level's chains, still under mu
	}
	mu.Unlock()
	return Ref(idx), true
}

// ——— lossy lock-free computed cache ———

func parCacheSlot(a, b uint64) uint32 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return uint32(x) & (parCacheSize - 1)
}

// parCacheGet probes a lossy cache for key (a, bKey); the result rides
// in the upper half of the b payload. Any in-progress, torn or
// stale-generation entry is a miss.
func (ps *parState) parCacheGet(tbl []parEntry, a, bKey uint64) (Ref, bool) {
	e := &tbl[parCacheSlot(a, bKey)]
	s1 := e.seq.Load()
	if s1&1 != 0 || s1>>32 != ps.gen.Load()&0xffffffff {
		return False, false
	}
	ea := e.a.Load()
	eb := e.b.Load()
	if e.seq.Load() != s1 {
		return False, false
	}
	if ea != a || eb&0xffffffff != bKey&0xffffffff {
		return False, false
	}
	return Ref(eb >> 32), true
}

// parCachePut publishes key (a, bKey) -> res, lossily: if another
// writer holds the slot the entry is simply dropped.
func (ps *parState) parCachePut(tbl []parEntry, a, bKey uint64, res Ref) {
	e := &tbl[parCacheSlot(a, bKey)]
	s := e.seq.Load()
	if s&1 != 0 {
		return
	}
	if !e.seq.CompareAndSwap(s, s|1) {
		return
	}
	e.a.Store(a)
	e.b.Store(bKey&0xffffffff | uint64(res)<<32)
	e.seq.Store((ps.gen.Load()&0xffffffff)<<32 | (s+2)&0xfffffffe)
}

// cacheGet probes a lossy cache on behalf of c, counting the lookup
// and any hit in c's ITE/binary-cache counters.
func (c *parCtx) cacheGet(tbl []parEntry, a, bKey uint64) (Ref, bool) {
	c.cacheLookups++
	res, ok := c.ps.parCacheGet(tbl, a, bKey)
	if ok {
		c.cacheHits++
	}
	return res, ok
}

// parInvalidateCaches makes every parallel cache entry stale by bumping
// the generation tag; called from clearCaches (GC that freed nodes,
// reordering). O(1) — no scan.
func (m *Manager) parInvalidateCaches() {
	if m.par != nil {
		m.par.gen.Add(1)
	}
}

// ——— forking ———

// shouldFork reports whether a recursion site at the given depth may
// fork its cofactor subproblems onto two goroutines. The sequential
// context (c == nil) never forks.
func (c *parCtx) shouldFork(depth int32) bool {
	if c == nil {
		return false
	}
	ps := c.ps
	return depth < ps.forkDepth && ps.inflight.Load() < ps.forkCap
}

// forkResult carries a forked subproblem's answer back to its parent.
type forkResult struct {
	res Ref
	ok  bool
}

// fork evaluates lo on c and hi on a fresh goroutine with its own
// context, and joins. ok is false if either side ran out of arena.
// The kernels build the two closures only on the branch where
// shouldFork allowed the fork: a goroutine's closure escapes, so a
// closure built on every call would allocate on every call. For the
// same reason the closures capture only variables that are never
// reassigned (those are copied, not moved to the heap), and the answer
// comes back over a channel rather than through captured variables.
func (c *parCtx) fork(lo, hi func(*parCtx) (Ref, bool)) (low, high Ref, ok bool) {
	ps := c.ps
	c.forks++
	n := ps.inflight.Add(1)
	for {
		p := ps.peakInFlight.Load()
		if n <= p || ps.peakInFlight.CompareAndSwap(p, n) {
			break
		}
	}
	done := make(chan forkResult, 1)
	go func() {
		cc := ps.getCtx(c.m)
		res, ok := hi(cc)
		ps.putCtx(cc)
		ps.inflight.Add(-1)
		done <- forkResult{res, ok}
	}()
	low, okL := lo(c)
	r := <-done
	return low, r.res, okL && r.ok
}

// ——— top-level drivers ———

// parRunOne runs a single operation in its own section, growing the
// arena and retrying on exhaustion. Subresults already published to the
// unique table survive a retry, so a retry re-derives only the missing
// remainder of the computation.
func (m *Manager) parRunOne(fn func(c *parCtx) (Ref, bool)) Ref {
	ps := m.par
	for {
		m.parBegin()
		c := ps.getCtx(m)
		res, ok := fn(c)
		ps.putCtx(c)
		m.parEnd()
		if ok {
			return res
		}
		m.Stats.ParallelRetries++
		m.parGrow(m.parGrowAmount())
	}
}

// ParOp is the operation handle handed to RunParallel jobs: the same
// boolean and quantification operations as the Manager, evaluated in
// the job's context inside the surrounding parallel section. A ParOp is
// confined to its job's goroutine. When the parallel engine is inactive
// its context is the sequential one.
type ParOp struct {
	m      *Manager
	c      *parCtx
	failed bool
}

// Failed reports whether an operation on this handle aborted on arena
// exhaustion (RunParallel retries such jobs after growing the arena).
func (p *ParOp) Failed() bool { return p.failed }

func (p *ParOp) run(fn func(c *parCtx) (Ref, bool)) Ref {
	if p.failed {
		return False
	}
	res, ok := fn(p.c)
	if !ok {
		p.failed = true
		return False
	}
	return res
}

// AndExists computes ∃cube.(f ∧ g) inside the section.
func (p *ParOp) AndExists(f, g, cube Ref) Ref {
	p.m.countAndExists(p.c)
	return p.run(func(c *parCtx) (Ref, bool) { return p.m.andExists(c, f, g, cube, 0) })
}

// Exists computes ∃cube.f inside the section.
func (p *ParOp) Exists(f, cube Ref) Ref {
	return p.run(func(c *parCtx) (Ref, bool) { return p.m.exists(c, f, cube, 0) })
}

// Ite computes if-then-else inside the section.
func (p *ParOp) Ite(f, g, h Ref) Ref {
	return p.run(func(c *parCtx) (Ref, bool) { return p.m.ite3(c, f, g, h, 0) })
}

// And computes f ∧ g inside the section.
func (p *ParOp) And(f, g Ref) Ref { return p.Ite(f, g, False) }

// Or computes f ∨ g inside the section.
func (p *ParOp) Or(f, g Ref) Ref { return p.Ite(f, True, g) }

// RunParallel evaluates independent jobs concurrently inside one
// parallel section on the shared manager, at most the configured worker
// budget at a time. Jobs must be re-runnable — a job whose operations
// hit arena exhaustion is aborted and re-run from the top after the
// coordinator grows the arena (canonicity makes the retry cheap and
// deterministic: it finds its earlier subresults in the unique table).
// Jobs must not touch the Manager API directly — all BDD work goes
// through the supplied ParOp — and every ref a job consumes must exist
// before the call. With the engine disabled (workers <= 1) the jobs run
// sequentially on the caller's goroutine.
func (m *Manager) RunParallel(jobs []func(op *ParOp)) {
	if len(jobs) == 0 {
		return
	}
	if !m.parallelActive() {
		for _, job := range jobs {
			job(&ParOp{m: m})
		}
		return
	}
	ps := m.par
	pending := make([]int, len(jobs))
	for i := range jobs {
		pending[i] = i
	}
	failed := make([]bool, len(jobs))
	for {
		m.parBegin()
		width := ps.workers
		if width > len(pending) {
			width = len(pending)
		}
		// Workers report on idle rather than a captured WaitGroup, which
		// would be moved to the heap; CI rejects any such move in the
		// kernel files (see parCtx.fork).
		work := make(chan int)
		idle := make(chan struct{}, width)
		for w := 0; w < width; w++ {
			go func() {
				for i := range work {
					c := ps.getCtx(m)
					op := &ParOp{m: m, c: c}
					jobs[i](op)
					failed[i] = op.failed
					ps.putCtx(c)
				}
				idle <- struct{}{}
			}()
		}
		for _, i := range pending {
			work <- i
		}
		close(work)
		for w := 0; w < width; w++ {
			<-idle
		}
		m.Stats.ParallelJobs += uint64(len(pending))
		m.parEnd()
		var retry []int
		for _, i := range pending {
			if failed[i] {
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 {
			return
		}
		pending = retry
		m.Stats.ParallelRetries++
		m.parGrow(m.parGrowAmount())
	}
}
