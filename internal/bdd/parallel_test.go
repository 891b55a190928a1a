package bdd

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// parallelWorkload builds a transition-relation-shaped workload on m:
// 2*k interleaved variables (x_i at even levels, y_i at odd levels), a
// relation rel = AND_i (y_i XOR (x_i XOR x_{i+1 mod k})) plus noise
// terms, a random source set over the x variables, and the x cube.
// rng drives the noise so different seeds give different functions.
func parallelWorkload(m *Manager, k int, rng *rand.Rand) (set, rel, cube Ref) {
	for i := 0; i < 2*k; i++ {
		m.AddVar()
	}
	x := func(i int) Ref { return m.Var(2 * (i % k)) }
	y := func(i int) Ref { return m.Var(2*(i%k) + 1) }
	rel = True
	for i := 0; i < k; i++ {
		step := m.Eq(y(i), m.Xor(x(i), x(i+1)))
		rel = m.And(rel, step)
	}
	// Noise: a few random clauses over mixed variables keep the
	// relation from collapsing to a tiny function.
	for c := 0; c < k; c++ {
		cl := False
		for l := 0; l < 3; l++ {
			v := rng.Intn(2 * k)
			lit := m.Lit(v, rng.Intn(2) == 0)
			cl = m.Or(cl, lit)
		}
		rel = m.And(rel, m.Or(cl, y(rng.Intn(k))))
	}
	set = False
	for t := 0; t < 4*k; t++ {
		term := True
		for l := 0; l < k/2+1; l++ {
			v := 2 * rng.Intn(k)
			term = m.And(term, m.Lit(v, rng.Intn(2) == 0))
		}
		set = m.Or(set, term)
	}
	vars := make([]int, k)
	for i := range vars {
		vars[i] = 2 * i
	}
	cube = m.Cube(vars)
	return set, rel, cube
}

// TestParallelMatchesSequential builds the workload twice — once on a
// manager whose big operations run in parallel sections, once on a
// plain sequential manager — and demands semantically identical results
// (SatCount and pointwise evaluation agree), plus clean invariants on
// the parallel manager. Runs across worker counts and both
// representations; parallel-first construction is the hard direction,
// since the parallel engine creates the nodes the checks walk.
func TestParallelMatchesSequential(t *testing.T) {
	const k = 7
	for _, workers := range []int{2, 3, 4, 8} {
		for _, noComp := range []bool{false, true} {
			var opts []Option
			if noComp {
				opts = append(opts, DisableComplementEdges())
			}
			par := New(0, opts...)
			par.SetParallelWorkers(workers)
			par.SetParallelGranularity(1) // force sections even on small operands
			seq := New(0, opts...)

			rngP := rand.New(rand.NewSource(42))
			rngS := rand.New(rand.NewSource(42))
			setP, relP, cubeP := parallelWorkload(par, k, rngP)
			setS, relS, cubeS := parallelWorkload(seq, k, rngS)

			imgP := par.AndExists(relP, setP, cubeP)
			imgS := seq.AndExists(relS, setS, cubeS)
			exP := par.Exists(relP, cubeP)
			exS := seq.Exists(relS, cubeS)
			iteP := par.Ite(setP, relP, imgP)
			iteS := seq.Ite(setS, relS, imgS)

			n := 2 * k
			pairs := [][2]Ref{{imgP, imgS}, {exP, exS}, {iteP, iteS}}
			for pi, pr := range pairs {
				if c, rc := par.SatCount(pr[0], n), seq.SatCount(pr[1], n); math.Abs(c-rc) > 0.5 {
					t.Fatalf("workers=%d noComp=%v result %d: SatCount %v (parallel) vs %v (sequential)",
						workers, noComp, pi, c, rc)
				}
				for a := 0; a < 1<<n; a += 13 { // sampled assignments
					env := envFor(n, a)
					if par.Eval(pr[0], env) != seq.Eval(pr[1], env) {
						t.Fatalf("workers=%d noComp=%v result %d: diverges at assignment %b",
							workers, noComp, pi, a)
					}
				}
			}

			// Canonicity inside one manager: switching the engine off and
			// recomputing must return the exact same Refs without creating
			// a single node.
			par.SetParallelWorkers(1)
			before := par.NumNodes()
			if r := par.AndExists(relP, setP, cubeP); r != imgP {
				t.Fatalf("workers=%d noComp=%v: sequential recompute of AndExists returned %d, parallel %d",
					workers, noComp, r, imgP)
			}
			if r := par.Exists(relP, cubeP); r != exP {
				t.Fatalf("workers=%d noComp=%v: sequential recompute of Exists diverged", workers, noComp)
			}
			if r := par.Ite(setP, relP, imgP); r != iteP {
				t.Fatalf("workers=%d noComp=%v: sequential recompute of Ite diverged", workers, noComp)
			}
			if after := par.NumNodes(); after != before {
				t.Fatalf("workers=%d noComp=%v: sequential recompute allocated %d nodes over %d",
					workers, noComp, after-before, before)
			}

			if err := CheckInvariants(par); err != nil {
				t.Fatalf("workers=%d noComp=%v: parallel manager invariants: %v", workers, noComp, err)
			}
			if st := par.Stats; st.ParallelSections == 0 {
				t.Fatalf("workers=%d noComp=%v: no parallel sections ran", workers, noComp)
			}
		}
	}
}

// TestRunParallelJobs exercises the batch API: independent AndExists
// jobs over shared operands inside one section, results identical to
// the sequential evaluation of the same jobs and stats accounting for
// every job.
func TestRunParallelJobs(t *testing.T) {
	const k = 6
	m := New(0)
	rng := rand.New(rand.NewSource(7))
	set, rel, cube := parallelWorkload(m, k, rng)

	// Sequential oracle results first (engine still off).
	parts := []Ref{set, rel, m.And(set, rel), m.Or(set, rel), m.Xor(set, rel)}
	want := make([]Ref, len(parts))
	for i, p := range parts {
		want[i] = m.AndExists(p, rel, cube)
	}

	m.SetParallelWorkers(4)
	m.SetParallelGranularity(1)
	got := make([]Ref, len(parts))
	jobs := make([]func(op *ParOp), len(parts))
	for i := range parts {
		i := i
		jobs[i] = func(op *ParOp) {
			got[i] = op.AndExists(parts[i], rel, cube)
		}
	}
	m.RunParallel(jobs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: RunParallel returned %d, sequential oracle %d", i, got[i], want[i])
		}
	}
	if m.Stats.ParallelJobs < uint64(len(jobs)) {
		t.Fatalf("ParallelJobs = %d, want >= %d", m.Stats.ParallelJobs, len(jobs))
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatalf("invariants after RunParallel: %v", err)
	}

	// Disabled engine: same API, sequential execution.
	m.SetParallelWorkers(1)
	got2 := make([]Ref, len(parts))
	jobs2 := make([]func(op *ParOp), len(parts))
	for i := range parts {
		i := i
		jobs2[i] = func(op *ParOp) { got2[i] = op.AndExists(parts[i], rel, cube) }
	}
	m.RunParallel(jobs2)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("job %d: sequential-fallback RunParallel returned %d, want %d", i, got2[i], want[i])
		}
	}
}

// TestCheckInvariantsConcurrent runs the striped-table verifier
// *while* parallel Apply traffic is mutating the table — under -race
// this is the torn-read/striped-consistency regression the CI
// parallel-stress lane exists for. Every operation in the mutation loop
// routes through parallel sections (granularity 1), so the verifier
// only ever races against stripe-locked and atomic accesses.
func TestCheckInvariantsConcurrent(t *testing.T) {
	const k = 6
	m := New(0)
	rng := rand.New(rand.NewSource(11))
	set, rel, cube := parallelWorkload(m, k, rng)
	m.SetParallelWorkers(4)
	m.SetParallelGranularity(1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := CheckInvariantsConcurrent(m); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}()

	cur := set
	for i := 0; i < 60; i++ {
		cur = m.AndExists(cur, rel, cube)
		cur = m.Or(cur, set)
		cur = m.Ite(rel, cur, set)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent invariant check: %v", err)
	default:
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	if m.Stats.ParallelSections == 0 {
		t.Fatal("mutation loop never opened a parallel section")
	}
}

// TestReorderParallelSafePoint is the reorder-during-parallel-Apply
// regression: inside a live section GC, ReorderIfNeeded and SiftNow
// must all be hard no-ops (the arena is shared by workers), and at the
// section boundary auto-reordering must run again and leave a
// consistent manager whose functions are unchanged.
func TestReorderParallelSafePoint(t *testing.T) {
	const k = 6
	m := New(0)
	rng := rand.New(rand.NewSource(3))
	set, rel, cube := parallelWorkload(m, k, rng)
	m.Protect(set)
	m.Protect(rel)
	m.Protect(cube)
	m.SetParallelWorkers(4)
	m.SetParallelGranularity(1)
	m.EnableAutoReorder(&ReorderOptions{MinNodes: 1, GrowthTrigger: 1.01})

	// Mid-section: every restructuring entry point must refuse.
	m.parBegin()
	if m.ReorderIfNeeded() {
		t.Fatal("ReorderIfNeeded ran inside a parallel section")
	}
	if freed := m.GC(); freed != 0 {
		t.Fatalf("GC freed %d nodes inside a parallel section", freed)
	}
	ord := m.Order()
	m.SiftNow()
	if got := m.Order(); !equalIntSlices(got, ord) {
		t.Fatal("SiftNow changed the order inside a parallel section")
	}
	if gcRuns := m.Stats.GCRuns; gcRuns != 0 {
		t.Fatalf("GC recorded %d runs inside a section", gcRuns)
	}
	m.parEnd()

	// At the boundary the growth trigger is armed; parallel traffic
	// interleaved with ReorderIfNeeded safe points must stay correct.
	n := 2 * k
	wantCount := m.SatCount(m.AndExists(set, rel, cube), n)
	for i := 0; i < 5; i++ {
		img := m.AndExists(set, rel, cube)
		if c := m.SatCount(img, n); math.Abs(c-wantCount) > 0.5 {
			t.Fatalf("iteration %d: image SatCount %v, want %v", i, c, wantCount)
		}
		m.ReorderIfNeeded()
	}
	if m.Stats.AutoReorders == 0 {
		t.Fatal("auto-reorder never fired at the section boundary (trigger was armed)")
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatalf("invariants after reorder/parallel interleaving: %v", err)
	}
}

func equalIntSlices(a, b []int) bool {
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

// TestParallelExhaustionRetry drives a parallel construction from a
// cold arena (granularity 1 from the first operation), so early
// sections begin with minimal headroom and the grow-and-retry path
// runs. Correctness is asserted against a sequential twin.
func TestParallelExhaustionRetry(t *testing.T) {
	const k = 8
	par := New(0)
	par.SetParallelWorkers(8)
	par.SetParallelGranularity(1)
	seq := New(0)
	setP, relP, cubeP := parallelWorkload(par, k, rand.New(rand.NewSource(19)))
	setS, relS, cubeS := parallelWorkload(seq, k, rand.New(rand.NewSource(19)))
	// Compact the arena to zero spare capacity so the next section
	// starts with only the minimum pre-section headroom and must hit
	// the exhaustion path at least once on a large operation.
	par.nodes = append(make([]node, 0, len(par.nodes)), par.nodes...)
	imgP := par.AndExists(setP, relP, cubeP)
	imgS := seq.AndExists(setS, relS, cubeS)
	n := 2 * k
	if c, rc := par.SatCount(imgP, n), seq.SatCount(imgS, n); math.Abs(c-rc) > 0.5 {
		t.Fatalf("SatCount %v (parallel) vs %v (sequential)", c, rc)
	}
	if err := CheckInvariants(par); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	t.Logf("sections=%d forks=%d retries=%d peakInFlight=%d",
		par.Stats.ParallelSections, par.Stats.ParallelForks,
		par.Stats.ParallelRetries, par.Stats.ParallelPeakInFlight)

	// Exercise the grow-and-retry protocol deterministically: simulate
	// two exhausted sections before letting the operation through, and
	// check that the manager comes back consistent with the right result
	// and retry accounting.
	a, b := par.Var(0), par.Var(2)
	want := par.Ite(a, b, False)
	retries0 := par.Stats.ParallelRetries
	capBefore := cap(par.nodes)
	attempts := 0
	got := par.parRunOne(func(c *parCtx) (Ref, bool) {
		attempts++
		if attempts <= 2 {
			c.ps.exhausted.Store(true)
			return False, false
		}
		return par.ite3(c, a, b, False, 0)
	})
	if attempts != 3 {
		t.Fatalf("parRunOne ran the operation %d times, want 3", attempts)
	}
	if got != want {
		t.Fatalf("parRunOne after retries returned %d, want %d", got, want)
	}
	if d := par.Stats.ParallelRetries - retries0; d != 2 {
		t.Fatalf("ParallelRetries grew by %d, want 2", d)
	}
	if cap(par.nodes) <= capBefore {
		t.Fatal("retry protocol never grew the arena")
	}
	if err := CheckInvariants(par); err != nil {
		t.Fatalf("invariants after forced retries: %v", err)
	}
}

// TestParallelCacheInvalidation: a GC that frees nodes must make every
// parallel cache entry unreachable (generation bump), never serving a
// stale ref afterwards.
func TestParallelCacheInvalidation(t *testing.T) {
	const k = 6
	m := New(0)
	set, rel, cube := parallelWorkload(m, k, rand.New(rand.NewSource(5)))
	m.SetParallelWorkers(2)
	m.SetParallelGranularity(1)
	img := m.AndExists(set, rel, cube)
	n := 2 * k
	want := m.SatCount(img, n)
	// Drop everything, collect, rebuild: cached (f,g,cube)->res entries
	// now name freed slots; the generation bump must hide them.
	m.GC() // nothing protected: frees the whole workload
	set2, rel2, cube2 := parallelWorkload(m, k, rand.New(rand.NewSource(5)))
	img2 := m.AndExists(set2, rel2, cube2)
	if c := m.SatCount(img2, n); math.Abs(c-want) > 0.5 {
		t.Fatalf("rebuilt image SatCount %v, want %v (stale parallel cache?)", c, want)
	}
	if err := CheckInvariants(m); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// FuzzParallelApply is the lockstep parallel-vs-sequential stack
// machine: the same operation stream runs on a parallel-engine manager
// (worker count and granularity taken from the input) and on a plain
// sequential reference manager, and every pushed result must agree
// pointwise on all assignments. Complements stay enabled — the parallel
// recursion's complement normalization is exactly what this hunts.
func FuzzParallelApply(f *testing.F) {
	f.Add(uint8(2), []byte{0x00, 0x10, 0x06, 0x05, 0x27, 0x3a})
	f.Add(uint8(4), []byte{0x03, 0x04, 0x09, 0x05, 0x05, 0x6b, 0x7c})
	f.Add(uint8(8), []byte{0x00, 0x12, 0x08, 0x4b, 0x0c, 0x1d, 0xa1, 0xb2})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, workers uint8, ops []byte) {
		const n = 6
		if len(ops) > 64 {
			ops = ops[:64]
		}
		m := New(n)
		m.SetParallelWorkers(int(workers)%8 + 1)
		m.SetParallelGranularity(1)
		ref := New(n)

		var ms, rs []Ref
		push := func(a, b Ref) {
			ms = append(ms, m.Protect(a))
			rs = append(rs, ref.Protect(b))
		}
		pick := func(arg int) int {
			if len(ms) == 0 {
				return -1
			}
			return arg % len(ms)
		}

		for _, b := range ops {
			op, arg := int(b&0xF), int(b>>4)
			switch op {
			case 0, 1:
				v := arg % n
				push(m.Var(v), ref.Var(v))
			case 2:
				v := arg % n
				push(m.NVar(v), ref.NVar(v))
			case 3:
				push(False, False)
			case 4:
				push(True, True)
			case 5: // Not
				if i := pick(arg); i >= 0 {
					push(m.Not(ms[i]), ref.Not(rs[i]))
				}
			case 6: // And
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.And(ms[i], ms[j]), ref.And(rs[i], rs[j]))
				}
			case 7: // Or
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.Or(ms[i], ms[j]), ref.Or(rs[i], rs[j]))
				}
			case 8: // Xor
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					push(m.Xor(ms[i], ms[j]), ref.Xor(rs[i], rs[j]))
				}
			case 9: // Ite
				if i, j, k := pick(arg), pick(arg+1), pick(arg+2); i >= 0 {
					push(m.Ite(ms[i], ms[j], ms[k]), ref.Ite(rs[i], rs[j], rs[k]))
				}
			case 10: // Exists over one variable
				if i := pick(arg); i >= 0 {
					v := arg % n
					push(m.Exists(ms[i], m.Cube([]int{v})), ref.Exists(rs[i], ref.Cube([]int{v})))
				}
			case 11: // AndExists over one variable
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					v := arg % n
					push(m.AndExists(ms[i], ms[j], m.Cube([]int{v})),
						ref.AndExists(rs[i], rs[j], ref.Cube([]int{v})))
				}
			case 12: // AndExists over a two-variable cube
				if i, j := pick(arg), pick(arg+1); i >= 0 {
					cv := []int{arg % n, (arg + 3) % n}
					push(m.AndExists(ms[i], ms[j], m.Cube(cv)),
						ref.AndExists(rs[i], rs[j], ref.Cube(cv)))
				}
			case 13: // GC both arenas (safe point: between sections)
				m.GC()
				ref.GC()
			}
		}

		if err := CheckInvariants(m); err != nil {
			t.Fatalf("parallel manager: %v", err)
		}
		if err := CheckInvariants(ref); err != nil {
			t.Fatalf("reference manager: %v", err)
		}
		for idx := range ms {
			if c, rc := m.SatCount(ms[idx], n), ref.SatCount(rs[idx], n); math.Abs(c-rc) > 0.5 {
				t.Fatalf("stack[%d]: SatCount %v (parallel) vs %v (reference)", idx, c, rc)
			}
			for a := 0; a < 1<<n; a++ {
				env := envFor(n, a)
				if m.Eval(ms[idx], env) != ref.Eval(rs[idx], env) {
					t.Fatalf("stack[%d]: engines diverge at assignment %b", idx, a)
				}
			}
		}
	})
}

// TestSequentialContextAllocatesNothing: the sequential context of the
// one ITE/Exists/AndExists recursion must not pay for the parallel
// context it shares the code with. A cache-missing call whose new nodes
// land in free-list slots performs no heap allocation at all; a fork
// closure built off the fork branch, or a result variable captured by a
// forked goroutine, would show up here on every call.
func TestSequentialContextAllocatesNothing(t *testing.T) {
	const k = 6
	m := New(0)
	set, rel, cube := parallelWorkload(m, k, rand.New(rand.NewSource(13)))
	m.Protect(set)
	m.Protect(rel)
	m.Protect(cube)
	m.AndExists(set, rel, cube) // allocates the lazy AndExists cache
	ops := []struct {
		name string
		run  func()
	}{
		{"Ite", func() { m.Ite(rel, set, m.Not(set)) }},
		{"Exists", func() { m.Exists(rel, cube) }},
		{"AndExists", func() { m.AndExists(set, rel, cube) }},
	}
	for _, op := range ops {
		var created, misses int
		arena := len(m.nodes)
		allocs := testing.AllocsPerRun(10, func() {
			m.GC() // frees the previous run's result: its slots go back on the free list
			m.clearCaches()
			live, lookups, hits := m.numAlloc, m.Stats.CacheLookups+m.Stats.AndExistsLookups, m.Stats.CacheHits
			op.run()
			created = m.numAlloc - live
			misses = int(m.Stats.CacheLookups + m.Stats.AndExistsLookups - lookups - (m.Stats.CacheHits - hits))
		})
		if created == 0 || misses == 0 {
			t.Fatalf("%s: created %d nodes over %d cache misses; the probe must build new nodes", op.name, created, misses)
		}
		if len(m.nodes) != arena {
			t.Fatalf("%s: arena grew from %d to %d slots; new nodes must fit in free slots", op.name, arena, len(m.nodes))
		}
		if allocs != 0 {
			t.Errorf("%s: %v heap allocations per sequential call, want 0", op.name, allocs)
		}
	}
}
