// Package repro's root benchmark harness: one benchmark per evaluation
// artifact of the paper (see DESIGN.md §2 and EXPERIMENTS.md), plus
// micro-benchmarks for the BDD substrate. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/bdd"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/ctlstar"
	"repro/internal/explicit"
	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/mc"
	"repro/internal/modelgen"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// --- E1: the Seitz arbiter case study ---------------------------------

// BenchmarkArbiterReachability measures the symbolic reachability sweep
// of the arbiter (paper: 33,633 states, "a few minutes" total).
func BenchmarkArbiterReachability(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Reachable()
	}
}

// BenchmarkArbiterCounterexample measures end-to-end counterexample
// generation for AG(tr1 -> AF ta1), the paper's headline experiment.
func BenchmarkArbiterCounterexample(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		ok, tr, err := gen.CounterexampleInit(spec)
		if err != nil || ok || tr == nil {
			b.Fatalf("expected counterexample: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkArbiterFullVerification checks all four arbiter specs.
func BenchmarkArbiterFullVerification(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	var specs []*ctl.Formula
	for _, s := range circuit.ArbiterSpecs {
		specs = append(specs, ctl.MustParse(s))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		for _, f := range specs {
			if _, _, err := gen.CounterexampleInit(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E2/E3: witness construction across SCC shapes --------------------

func figure1Model() *kripke.Explicit {
	e := kripke.NewExplicit(3)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(2, 0)
	e.AddInit(0)
	e.AddFairSet("h1", []bool{false, true, false})
	e.AddFairSet("h2", []bool{false, false, true})
	return e
}

func sccChain(depth int) *kripke.Explicit {
	e := kripke.NewExplicit(2 * depth)
	h1 := make([]bool, 2*depth)
	h2 := make([]bool, 2*depth)
	for i := 0; i < depth; i++ {
		a, c := 2*i, 2*i+1
		e.AddEdge(a, c)
		e.AddEdge(c, a)
		if i < depth-1 {
			e.AddEdge(c, a+2)
		}
		h1[a] = true
		if i == depth-1 {
			h2[c] = true
		}
	}
	e.AddInit(0)
	e.AddFairSet("h1", h1)
	e.AddFairSet("h2", h2)
	return e
}

// BenchmarkWitnessSingleSCC: Figure 1 — the cycle closes immediately.
func BenchmarkWitnessSingleSCC(b *testing.B) {
	s := kripke.FromExplicit(figure1Model())
	start := kripke.IndexState(0, len(s.Vars))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(s))
		if _, err := gen.WitnessEG(bdd.True, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWitnessMultiSCC: Figure 2 — the walk restarts down the SCC
// DAG; parameterized by chain depth and strategy.
func BenchmarkWitnessMultiSCC(b *testing.B) {
	for _, depth := range []int{3, 6, 12} {
		e := sccChain(depth)
		s := kripke.FromExplicit(e)
		start := kripke.IndexState(0, len(s.Vars))
		for _, strat := range []core.Strategy{core.StrategySimple, core.StrategyPrecompute} {
			b.Run(fmt.Sprintf("depth=%d/strategy=%s", depth, strat), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gen := core.NewGenerator(mc.New(s))
					gen.Strategy = strat
					if _, err := gen.WitnessEG(bdd.True, start); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: minimal vs heuristic witnesses (Theorem 1) -------------------

// BenchmarkMinimalWitnessBruteForce: the NP-complete exact problem.
func BenchmarkMinimalWitnessBruteForce(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		r := rand.New(rand.NewSource(int64(n)))
		e := kripke.RandomExplicit(r, n, 2, nil, 2, 0.3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.MinimalFiniteWitness(e, e.Init[0], e.N*(len(e.Fair)+1))
			}
		})
	}
}

// BenchmarkHeuristicWitness: the paper's polynomial heuristic on the
// same instances.
func BenchmarkHeuristicWitness(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		r := rand.New(rand.NewSource(int64(n)))
		e := kripke.RandomExplicit(r, n, 2, nil, 2, 0.3)
		s := kripke.FromExplicit(e)
		start := kripke.IndexState(e.Init[0], len(s.Vars))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			probe := core.NewGenerator(mc.New(s))
			if !s.Holds(probe.C.Fair(), start) {
				b.Skipf("n=%d: start state is unfair", n)
			}
			for i := 0; i < b.N; i++ {
				gen := core.NewGenerator(mc.New(s))
				if _, err := gen.WitnessEG(bdd.True, start); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHamiltonianReduction exercises the Theorem 1 reduction.
func BenchmarkHamiltonianReduction(b *testing.B) {
	succ := [][]int{{1}, {2}, {3}, {4}, {0}} // 5-ring
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !graph.HamiltonianViaWitness(succ) {
			b.Fatal("ring must be Hamiltonian")
		}
	}
}

// --- E5: the CTL* fragment (Section 7) --------------------------------

func ctlstarModel() *kripke.Symbolic {
	r := rand.New(rand.NewSource(5))
	e := kripke.RandomExplicit(r, 24, 3, []string{"p", "q"}, 1, 0.3)
	return kripke.FromExplicit(e)
}

// BenchmarkCTLStarCheck compares the Emerson–Lei fixpoint against the
// exponential case split.
func BenchmarkCTLStarCheck(b *testing.B) {
	s := ctlstarModel()
	f := ctlstar.MustParse("E (GF p | FG q) & (GF q | FG p)")
	b.Run("emerson-lei", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := ctlstar.New(mc.New(s))
			if _, err := sc.CheckEL(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("case-split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := ctlstar.New(mc.New(s))
			if _, err := sc.CheckSplit(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCTLStarWitness measures fragment witness generation.
func BenchmarkCTLStarWitness(b *testing.B) {
	s := ctlstarModel()
	f := ctlstar.MustParse("E (GF p | FG q) & (GF q | FG p)")
	sc := ctlstar.New(mc.New(s))
	set, err := sc.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := s.Reachable()
	states := s.EnumStates(s.M.And(reach, set), 1)
	if len(states) == 0 {
		b.Skip("formula unsatisfied on this model")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := ctlstar.New(mc.New(s))
		if _, err := sc.Witness(f, states[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Streett containment (Section 8) ------------------------------

// BenchmarkStreettContainment measures a failing containment check
// including counterexample word extraction.
func BenchmarkStreettContainment(b *testing.B) {
	mkAll := func() *automata.Streett {
		a := automata.NewStreett("all", 1, []string{"a", "b"})
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 0)
		a.AddPair("trivial", []int{0}, nil)
		return a
	}
	mkInfA := func() *automata.Streett {
		a := automata.NewStreett("infA", 2, []string{"a", "b"})
		a.Init = 1
		a.AddTrans(0, "a", 0)
		a.AddTrans(0, "b", 1)
		a.AddTrans(1, "a", 0)
		a.AddTrans(1, "b", 1)
		a.AddPair("inf-a", nil, []int{0})
		return a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := automata.CheckContainment(mkAll(), mkInfA())
		if err != nil || res.Contained {
			b.Fatalf("containment must fail: %v", err)
		}
	}
}

// --- E7: symbolic vs explicit (the EMC baseline) ----------------------

// BenchmarkSymbolicVsExplicit contrasts symbolic reachability with
// explicit enumeration on chained arbiters.
func BenchmarkSymbolicVsExplicit(b *testing.B) {
	for _, k := range []int{1, 2} {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("symbolic/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		if k == 1 {
			b.Run(fmt.Sprintf("explicit/k=%d", k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := model.ToExplicit(0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExplicitCTL measures the EMC-style checker on an enumerated
// arbiter, for comparison with the symbolic one.
func BenchmarkExplicitCTL(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	e, _, err := model.ToExplicit(0)
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := explicit.New(e)
		if _, err := c.Check(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymbolicCTL is the symbolic counterpart of
// BenchmarkExplicitCTL (checking only, no counterexample).
func BenchmarkSymbolicCTL(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mc.New(model)
		if _, err := c.Check(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- BDD substrate micro-benchmarks ------------------------------------

// BenchmarkBDDIte builds a dense random function tree.
func BenchmarkBDDIte(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := bdd.New(16)
		f := bdd.False
		for v := 0; v < 16; v++ {
			f = m.Xor(f, m.Var(v))
		}
		g := bdd.True
		for v := 0; v < 16; v += 2 {
			g = m.And(g, m.Or(m.Var(v), m.Var(v+1)))
		}
		m.Ite(f, g, m.Not(g))
	}
}

// BenchmarkRelationalProduct measures the fused AndExists on the
// arbiter's transition relation — the checker's inner loop.
func BenchmarkRelationalProduct(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Preimage(reach)
	}
}

// BenchmarkSatCount measures model counting on the reachable set.
func BenchmarkSatCount(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.CountStates(reach)
	}
}

// BenchmarkPartitionedVsMonolithic is the E11 ablation: early-quantified
// clustered image computation vs. the monolithic relation.
func BenchmarkPartitionedVsMonolithic(b *testing.B) {
	for _, k := range []int{1, 2} {
		model, err := circuit.ScaledArbiter(k).Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("partitioned/k=%d", k), func(b *testing.B) {
			model.EnablePartition(true)
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		b.Run(fmt.Sprintf("monolithic/k=%d", k), func(b *testing.B) {
			model.EnablePartition(false)
			for i := 0; i < b.N; i++ {
				model.Reachable()
			}
		})
		model.EnablePartition(true)
	}
}

// BenchmarkTreeArbiterHazard measures the second case study (E12): the
// stale-ack hazard hunt on the 4-user tree arbiter.
func BenchmarkTreeArbiterHazard(b *testing.B) {
	model, err := circuit.TreeArbiter(2).Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse(circuit.TreeArbiterMutexSpec(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		ok, _, err := gen.CounterexampleInit(spec)
		if err != nil || ok {
			b.Fatalf("hazard must be found: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkTraceCompaction measures the Section 9 extension on the
// arbiter counterexample.
func BenchmarkTraceCompaction(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := ctl.MustParse("AG (tr1 -> AF ta1)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := core.NewGenerator(mc.New(model))
		_, tr, err := gen.CounterexampleInit(spec)
		if err != nil {
			b.Fatal(err)
		}
		core.Compact(model, tr, bdd.True)
	}
}

// BenchmarkBDDSerialization round-trips the arbiter's reachable set.
func BenchmarkBDDSerialization(b *testing.B) {
	model, err := circuit.SeitzArbiter().Compile()
	if err != nil {
		b.Fatal(err)
	}
	reach, _ := model.Reachable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := model.M.Save(&buf, []bdd.Ref{reach}); err != nil {
			b.Fatal(err)
		}
		if _, err := model.M.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReorder measures offline variable reordering on an
// interleaving-sensitive function.
func BenchmarkReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := bdd.New(12)
		f := bdd.True
		for v := 0; v < 6; v++ {
			f = m.And(f, m.Eq(m.Var(v), m.Var(v+6)))
		}
		order := make([]int, 12)
		for v := 0; v < 6; v++ {
			order[2*v] = v
			order[2*v+1] = v + 6
		}
		m.Reorder(order, []bdd.Ref{f})
	}
}

// --- BENCH_rows.json: the one bench recorder --------------------------
//
// TestRecordBench is gated behind BENCH_RECORD=1 (it runs minutes of
// wall time) and writes BENCH_rows.json, one row per case of
// benchCases(). A case is (model, config, workers, workload):
//
//	model     a models/*.smv file, a generated scaled instance
//	          (scaled-ring-8, hanoi-7, chase-16, arbiter-8) or a scaled
//	          Seitz-arbiter netlist (scaled-arbiter-kN, 2N cells)
//	config    the image mode (partitioned, monolithic or disjunctive),
//	          with "+sift" for growth-triggered reordering
//	workers   the parallel engine's worker count
//	workload  bfs-10 (ten frontier steps, for sizes whose full fixpoint
//	          is out of reach), reachable, reachable+ex3 (the fixpoint
//	          and three backward EX steps), trans-materialization (the
//	          monolithic relation built under a node budget),
//	          "ctl <spec>" / "ltl <spec>" (one spec checked, its trace
//	          validated), or "smvd <phase>" (the session-cache phases)
//
// Every case compiles fresh, so caches and node tables never leak
// between cases, and runs benchReps times. Within a sweep (the cases
// sharing model and workload) the order rotates on every repetition,
// so no configuration always runs first on a cold heap. A row is the
// median-wall run; on one worker every counter must repeat exactly
// across the repetitions. benchChecks are the acceptance assertions a
// recording must pass, and cmd/benchgate gates a re-recording against
// the committed file with the bands of each row's group.

const (
	benchReps        = 3
	benchGC          = 1 << 16 // tight GC threshold: peaks reflect live sets
	bfsSteps         = 10
	monoNodeBudget   = 6_000_000 // cap for the monolithic build attempt
	monoBuildTimeout = 30 * time.Second
)

// latticeReorder is the modelgen lattice's trigger profile: MinNodes
// low enough that scenario-sized spec checks actually sift. Image
// workloads sift with the manager's defaults.
var latticeReorder = bdd.ReorderOptions{GrowthTrigger: 1.5, MinNodes: 256, MaxPasses: 1, Window: 4, MaxBlocks: 16}

// benchHost fingerprints the machine a row was recorded on.
type benchHost struct {
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostFingerprint() benchHost {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return benchHost{runtime.GOOS + "/" + runtime.GOARCH, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}
}

// benchRow is the one row schema: identity (group, model, config,
// workers, workload, and the verdict or abort a run ends in), host,
// wall time, and every counter a workload produces.
type benchRow struct {
	Group    string    `json:"group"`
	Model    string    `json:"model"`
	Config   string    `json:"config"`
	Workers  int       `json:"workers"`
	Workload string    `json:"workload"`
	Holds    *bool     `json:"holds,omitempty"`
	Aborted  bool      `json:"aborted,omitempty"`
	Host     benchHost `json:"host"`
	WallMS   float64   `json:"wall_ms"`

	PeakLiveNodes     int     `json:"peak_live_nodes,omitempty"`
	FinalLiveNodes    int     `json:"final_live_nodes,omitempty"`
	ReachableStates   float64 `json:"reachable_states,omitempty"`
	ReachIters        int     `json:"reach_iters,omitempty"`
	ImageCalls        uint64  `json:"image_calls,omitempty"`
	PreimageCalls     uint64  `json:"preimage_calls,omitempty"`
	ClusterSteps      uint64  `json:"cluster_steps,omitempty"`
	DisjunctSteps     uint64  `json:"disjunct_steps,omitempty"`
	ParallelBatches   uint64  `json:"parallel_batches,omitempty"`
	AndExistsLookups  uint64  `json:"and_exists_lookups,omitempty"`
	AndExistsHits     uint64  `json:"and_exists_hits,omitempty"`
	CacheHitRate      float64 `json:"cache_hit_rate,omitempty"`
	BytesPerNode      float64 `json:"bytes_per_node,omitempty"`
	Clusters          int     `json:"clusters,omitempty"`
	SumClusterNodes   int     `json:"sum_cluster_nodes,omitempty"`
	Components        int     `json:"components,omitempty"`
	TransNodes        int     `json:"trans_nodes,omitempty"`
	SiftEvents        uint64  `json:"sift_events,omitempty"`
	SiftPasses        uint64  `json:"sift_passes,omitempty"`
	SiftTrials        uint64  `json:"sift_trials,omitempty"`
	SiftSwaps         uint64  `json:"sift_swaps,omitempty"`
	SiftAborts        uint64  `json:"sift_aborts,omitempty"`
	SiftTimeouts      uint64  `json:"sift_timeouts,omitempty"`
	NodesSaved        int64   `json:"nodes_saved,omitempty"`
	ReorderMS         float64 `json:"reorder_ms,omitempty"`
	ParallelSections  uint64  `json:"parallel_sections,omitempty"`
	ParallelJobs      uint64  `json:"parallel_jobs,omitempty"`
	ParallelForks     uint64  `json:"parallel_forks,omitempty"`
	PeakForksInFlight int     `json:"peak_forks_in_flight,omitempty"`
	TableauVars       int     `json:"tableau_vars,omitempty"`
	FairnessSets      int     `json:"fairness_sets,omitempty"`
	LassoStem         int     `json:"lasso_stem,omitempty"`
	LassoCycle        int     `json:"lasso_cycle,omitempty"`
	WarmSpeedup       float64 `json:"warm_speedup,omitempty"`
	QPS               float64 `json:"qps,omitempty"`
	Queries           uint64  `json:"queries,omitempty"`
	Note              string  `json:"note,omitempty"`
}

// counters renders the row without its timing fields: what a
// one-worker case must repeat exactly.
func (r benchRow) counters() string {
	r.WallMS, r.ReorderMS, r.WarmSpeedup, r.QPS, r.Note = 0, 0, 0, 0, ""
	out, _ := json.Marshal(r)
	return string(out)
}

type benchKey struct {
	model, config string
	workers       int
	workload      string
}

type benchCase struct {
	benchKey
	group string
	spec  int  // index into the module's SPECs or LTLSPECs
	want  bool // the spec's scenarioVerdicts verdict
}

// benchCases is the case table.
func benchCases() ([]benchCase, error) {
	var cs []benchCase
	add := func(group, model, config string, workers int, workloads ...string) {
		for _, w := range workloads {
			cs = append(cs, benchCase{benchKey: benchKey{model, config, workers, w}, group: group})
		}
	}
	// Partitioned vs monolithic image (the E11 ablation). From 6 cells
	// on, the monolithic relation itself exceeds the node budget: its
	// capped build attempt is the row, and partitioned runs bfs-10.
	for _, m := range []string{"seitz.smv", "scaled-arbiter-k2"} {
		add("counters", m, "partitioned", 1, "reachable+ex3")
		add("counters", m, "monolithic", 1, "reachable+ex3")
	}
	add("counters", "scaled-arbiter-k3", "monolithic", 1, "trans-materialization")
	add("counters", "scaled-arbiter-k4", "monolithic", 1, "trans-materialization")
	// bfs-10 without and with sifting. k4 without sifting is also the
	// one-worker baseline of the parallel sweep below.
	add("counters", "scaled-arbiter-k2", "partitioned", 1, "bfs-10")
	add("counters", "scaled-arbiter-k3", "partitioned", 1, "bfs-10")
	for _, m := range []string{"scaled-arbiter-k2", "scaled-arbiter-k3", "scaled-arbiter-k4", "scaled-ring-8"} {
		add("sift", m, "partitioned+sift", 1, "bfs-10")
	}
	// The shared-memory parallel engine: large conjunctive image steps
	// fork inside the kernels; ring components run as concurrent jobs.
	for _, w := range []int{1, 2, 4, 8} {
		group := "parallel"
		if w == 1 {
			group = "parallel-seq"
		}
		add(group, "scaled-arbiter-k4", "partitioned", w, "bfs-10")
		add(group, "scaled-ring-8", "disjunctive", w, "reachable")
	}
	// Disjunctive vs conjunctive image. dining and mutex are synchronous
	// (no process components) and ride along for continuity.
	for _, m := range []string{"dining.smv", "mutex.smv"} {
		add("counters", m, "partitioned", 1, "reachable+ex3")
		add("counters", m, "monolithic", 1, "reachable+ex3")
	}
	for _, m := range []string{"ring.smv", "scaled-ring-8"} {
		add("counters", m, "partitioned", 1, "reachable+ex3")
		for _, w := range []int{1, 2, 4} {
			add("counters", m, "disjunctive", w, "reachable+ex3")
		}
	}
	// Spec checks, verdicts asserted against scenarioVerdicts (the
	// scaled instances keep their shipped model's verdicts).
	for _, sc := range []struct {
		group, model, verdicts, config string
		ctl                            bool
	}{
		{"counters", "abp.smv", "abp.smv", "partitioned", false},
		{"counters", "peterson.smv", "peterson.smv", "partitioned", false},
		{"wall", "hanoi.smv", "hanoi.smv", "partitioned+sift", true},
		{"wall", "chase.smv", "chase.smv", "partitioned+sift", true},
		{"wall", "hanoi-7", "hanoi.smv", "partitioned+sift", true},
		{"wall", "chase-16", "chase.smv", "partitioned+sift", true},
	} {
		src, err := benchSource(sc.model)
		if err != nil {
			return nil, err
		}
		module, err := smv.ParseModule(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sc.model, err)
		}
		want, ok := scenarioVerdicts[sc.verdicts]
		if !ok || len(module.Specs) != len(want.ctl) || len(module.LTLSpecs) != len(want.ltl) {
			return nil, fmt.Errorf("%s: spec counts do not match the %s verdict table", sc.model, sc.verdicts)
		}
		specCase := func(kind string, i int, f fmt.Stringer, holds bool) {
			cs = append(cs, benchCase{benchKey: benchKey{sc.model, sc.config, 1, kind + " " + f.String()}, group: sc.group, spec: i, want: holds})
		}
		if sc.ctl {
			for i, sp := range module.Specs {
				specCase("ctl", i, sp.Formula, want.ctl[i])
			}
		}
		for i, sp := range module.LTLSpecs {
			specCase("ltl", i, sp.Formula, want.ltl[i])
		}
	}
	add("smvd", "arbiter-8", "partitioned", 1,
		"smvd cold_compile", "smvd warm_query", "smvd sustained", "smvd warm_restart")
	return cs, nil
}

// benchSource returns a bench model's SMV source: a models/ file or a
// generated scaled instance.
func benchSource(model string) (string, error) {
	switch model {
	case "scaled-ring-8":
		return scaledRingSource(8), nil
	case "hanoi-7":
		return modelgen.HanoiSource(7), nil
	case "chase-16":
		return modelgen.ChaseSource(16), nil
	case "arbiter-8":
		return modelgen.ArbiterSource(8), nil
	}
	src, err := os.ReadFile("models/" + model)
	return string(src), err
}

// benchCompile compiles a fresh instance of a bench model.
func benchCompile(model string) (*kripke.Symbolic, error) {
	if k, ok := strings.CutPrefix(model, "scaled-arbiter-k"); ok {
		n, err := strconv.Atoi(k)
		if err != nil {
			return nil, err
		}
		return circuit.ScaledArbiter(n).Compile()
	}
	src, err := benchSource(model)
	if err != nil {
		return nil, err
	}
	c, err := smv.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return c.S, nil
}

// scaledRingSource generates an n-station token ring in the SMV input
// language, the scaled interleaved bench model (models/ring.smv is the
// shipped 3-station instance).
func scaledRingSource(n int) string {
	var b strings.Builder
	b.WriteString(`MODULE station(token, me, succ)
VAR
  st : {idle, want, cs};
ASSIGN
  init(st) := idle;
  next(st) := case
    st = idle              : {idle, want};
    st = want & token = me : cs;
    st = cs                : idle;
    TRUE                   : st;
  esac;
  next(token) := case
    st = cs                : succ;
    st = idle & token = me : succ;
    TRUE                   : token;
  esac;
FAIRNESS running

MODULE main
VAR
  token : {`)
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "s%d", i)
	}
	b.WriteString("};\n")
	for i := 1; i <= n; i++ {
		succ := i%n + 1
		fmt.Fprintf(&b, "  st%d : process station(token, s%d, s%d);\n", i, i, succ)
	}
	b.WriteString("ASSIGN\n  init(token) := s1;\n")
	return b.String()
}

// configure applies a case's config and worker count to a fresh
// structure.
func configure(t *testing.T, s *kripke.Symbolic, c benchCase, sift *bdd.ReorderOptions) {
	t.Helper()
	s.M.SetGCThreshold(benchGC)
	mode, sifted := strings.CutSuffix(c.config, "+sift")
	switch mode {
	case "partitioned":
		if !s.HasClusters() {
			t.Fatalf("%s: no clusters for partitioned mode", c.model)
		}
	case "monolithic":
		s.EnablePartition(false)
	case "disjunctive":
		if s.NumDisjuncts() == 0 {
			t.Fatalf("%s: no disjuncts for disjunctive mode", c.model)
		}
		s.EnableDisjunct(true)
	default:
		t.Fatalf("unknown config %q", c.config)
	}
	s.SetWorkers(c.workers)
	if sifted {
		s.M.EnableAutoReorder(sift)
	}
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// readCounters fills the row's structure and manager counters; st0 is
// the manager's Stats when the measured work began.
func readCounters(s *kripke.Symbolic, st0 bdd.Stats, row *benchRow) {
	m, rs, st := s.M, s.RelStats(), s.M.Stats
	row.PeakLiveNodes = rs.PeakLiveNodes
	row.FinalLiveNodes = m.NumNodes()
	row.ImageCalls, row.PreimageCalls = rs.ImageCalls, rs.PreimageCalls
	row.ClusterSteps, row.DisjunctSteps, row.ParallelBatches = rs.ClusterSteps, rs.DisjunctSteps, rs.ParallelBatches
	row.AndExistsLookups = st.AndExistsLookups - st0.AndExistsLookups
	row.AndExistsHits = st.AndExistsHits - st0.AndExistsHits
	row.CacheHitRate = rs.CacheHitRate()
	row.BytesPerNode = float64(m.ArenaBytes()) / float64(m.NumNodes())
	row.Clusters, row.Components = s.NumClusters(), s.NumDisjuncts()
	if p := s.Partition(); p != nil {
		for _, c := range p.Clusters() {
			row.SumClusterNodes += m.Size(c)
		}
	}
	row.SiftEvents = st.AutoReorders - st0.AutoReorders
	row.SiftPasses = st.SiftPasses - st0.SiftPasses
	row.SiftTrials = st.SiftTrials - st0.SiftTrials
	row.SiftSwaps = st.SiftSwaps - st0.SiftSwaps
	row.SiftAborts = st.SiftAborts - st0.SiftAborts
	row.SiftTimeouts = st.SiftTimeouts - st0.SiftTimeouts
	row.NodesSaved = st.ReorderSavedNodes - st0.ReorderSavedNodes
	row.ReorderMS = millis(st.ReorderTime - st0.ReorderTime)
	row.ParallelSections = st.ParallelSections - st0.ParallelSections
	row.ParallelJobs = st.ParallelJobs - st0.ParallelJobs
	row.ParallelForks = st.ParallelForks - st0.ParallelForks
	row.PeakForksInFlight = st.ParallelPeakInFlight
}

func isSpec(workload string) bool {
	return strings.HasPrefix(workload, "ctl ") || strings.HasPrefix(workload, "ltl ")
}

// runCase runs one repetition of a case.
func runCase(t *testing.T, c benchCase) benchRow {
	row := benchRow{Group: c.group, Model: c.model, Config: c.config, Workers: c.workers, Workload: c.workload}
	switch {
	case strings.HasPrefix(c.workload, "smvd "):
		runSmvd(t, strings.TrimPrefix(c.workload, "smvd "), &row)
	case isSpec(c.workload):
		runSpec(t, c, &row)
	default:
		s, err := benchCompile(c.model)
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		configure(t, s, c, nil)
		if c.workload == "trans-materialization" {
			runMaterialize(s, &row)
		} else {
			runImage(t, s, c.workload, &row)
		}
	}
	return row
}

// runImage runs a reachability workload: bfs-10, reachable or
// reachable+ex3. The monolithic relation is built inside the timed
// region, by the first image step that needs it.
func runImage(t *testing.T, s *kripke.Symbolic, workload string, row *benchRow) {
	m := s.M
	m.GC()
	s.ResetRelStats()
	st0 := m.Stats
	t0 := time.Now()
	var reach bdd.Ref
	switch workload {
	case "bfs-10":
		reached, frontier := m.Protect(s.Init), m.Protect(s.Init)
		for i := 0; i < bfsSteps && frontier != bdd.False; i++ {
			img := s.Image(frontier)
			m.Unprotect(frontier)
			frontier = m.Protect(m.Diff(img, reached))
			m.Unprotect(reached)
			reached = m.Protect(m.Or(reached, frontier))
			m.MaybeGC()
		}
		m.Unprotect(frontier)
		m.Unprotect(reached)
		reach = reached
	case "reachable", "reachable+ex3":
		reach, row.ReachIters = s.Reachable()
		if workload == "reachable+ex3" {
			for i, pre := 0, reach; i < 3; i++ {
				pre = s.Preimage(pre)
			}
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	row.WallMS = millis(time.Since(t0))
	readCounters(s, st0, row)
	row.ReachableStates = s.CountStates(reach)
	if !s.PartitionEnabled() {
		row.TransNodes = m.Size(s.Trans())
	}
}

// runMaterialize tries to build the monolithic relation under a node
// and time budget, recording where it gives out: the conjunction is
// the object partitioning avoids.
func runMaterialize(s *kripke.Symbolic, row *benchRow) {
	m := s.M
	p := s.Partition()
	st0 := m.Stats
	t0 := time.Now()
	acc := m.Protect(bdd.True)
	for i, c := range p.Clusters() {
		next := m.Protect(m.And(acc, c))
		m.Unprotect(acc)
		acc = next
		if m.NumNodes() > monoNodeBudget || time.Since(t0) > monoBuildTimeout {
			row.Aborted = true
			row.Note = fmt.Sprintf("monolithic Trans BDD aborted at cluster %d/%d: node budget %d exceeded; partial conjunction already %d nodes",
				i+1, p.NumClusters(), monoNodeBudget, m.Size(acc))
			break
		}
	}
	row.WallMS = millis(time.Since(t0))
	readCounters(s, st0, row)
	row.PeakLiveNodes = m.NumNodes()
	if !row.Aborted {
		row.TransNodes = m.Size(acc)
	}
	m.Unprotect(acc)
}

// runSpec checks one spec on a fresh compile: a SPEC through the
// witness generator, its trace validated; an LTLSPEC through the
// tableau product, its lasso replayed. A wrong verdict is never
// recorded.
func runSpec(t *testing.T, c benchCase, row *benchRow) {
	src, err := benchSource(c.model)
	if err != nil {
		t.Fatal(err)
	}
	module, err := smv.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	var (
		s        *kripke.Symbolic
		check    func(*mc.Checker) (bool, *core.Trace, error)
		validate func(*core.Trace) error
	)
	if strings.HasPrefix(c.workload, "ctl ") {
		cmp, err := smv.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		s = cmp.S
		check = func(ch *mc.Checker) (bool, *core.Trace, error) {
			return core.NewGenerator(ch).CounterexampleInit(cmp.Module.Specs[c.spec].Formula)
		}
		validate = func(tr *core.Trace) error { return core.ValidatePath(s, tr) }
	} else {
		sp := module.LTLSpecs[c.spec]
		p, err := smv.CompileLTL(module, sp.Formula, sp.Source)
		if err != nil {
			t.Fatalf("%s %s: %v", c.model, sp.Source, err)
		}
		s, check, validate = p.S, p.Check, p.ReplayCounterexample
		row.TableauVars, row.FairnessSets = len(p.ElemVars), len(p.S.Fair)
	}
	// No collection first: the sift trigger measures growth from the
	// compiled arena, garbage included.
	configure(t, s, c, &latticeReorder)
	s.ResetRelStats()
	st0 := s.M.Stats
	t0 := time.Now()
	ch := mc.New(s)
	holds, tr, err := check(ch)
	row.WallMS = millis(time.Since(t0))
	if err != nil {
		t.Fatalf("%s %s: %v", c.model, c.workload, err)
	}
	readCounters(s, st0, row)
	row.Holds = &holds
	if holds != c.want {
		t.Fatalf("%s %s: got %v, want %v — refusing to record a wrong run", c.model, c.workload, holds, c.want)
	}
	if tr != nil {
		if err := validate(tr); err != nil {
			t.Fatalf("%s %s: invalid trace: %v", c.model, c.workload, err)
		}
		row.LassoStem, row.LassoCycle = len(tr.States), 0
		if tr.IsLasso() {
			row.LassoStem, row.LassoCycle = tr.CycleStart, len(tr.States)-tr.CycleStart
		}
	}
	ch.Close()
}

// runSmvd runs one phase of the smvd session cache on a fresh server
// over the 8-client arbiter. Every phase starts with its own cold
// query, the baseline of its warm speedup.
//
//	cold_compile  the cold query: parse, compile, reachability, fair
//	              set and all specs
//	warm_query    median of 7 repeat queries on the hot session
//	sustained     concurrent hot-query throughput, 4 clients
//	warm_restart  first query on a new server seeded from the on-disk
//	              record; it must be disk-warm and run no image step
func runSmvd(t *testing.T, phase string, row *benchRow) {
	const clients = 8
	src := modelgen.ArbiterSource(clients)
	specs, truth := modelgen.ArbiterSpecs(clients)
	dir := t.TempDir()
	newServer := func() *smvd.Server {
		cache, err := smvd.NewCache(8, 0, dir)
		if err != nil {
			t.Fatal(err)
		}
		return smvd.NewServer(cache)
	}
	query := func(sv *smvd.Server, req *smvd.CheckRequest, want []bool) (*smvd.CheckResponse, time.Duration) {
		t0 := time.Now()
		resp, err := sv.Check(req)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range resp.Verdicts {
			if v.Error != "" || v.Holds != want[i] {
				t.Fatalf("%q: holds=%v want %v (%s) — refusing to record a wrong run", v.Spec, v.Holds, want[i], v.Error)
			}
		}
		return resp, wall
	}
	session := func(sv *smvd.Server) smvd.SessionStats {
		ss := sv.Cache.Sessions()
		if len(ss) != 1 {
			t.Fatalf("got %d sessions", len(ss))
		}
		return ss[0]
	}
	sv := newServer()
	req := &smvd.CheckRequest{Model: src, Specs: specs}
	cold, coldWall := query(sv, req, truth)
	if cold.Warm {
		t.Fatal("cold query reported warm")
	}
	switch phase {
	case "cold_compile":
		ss := session(sv)
		row.WallMS = millis(coldWall)
		row.PeakLiveNodes, row.CacheHitRate, row.ImageCalls = ss.Rel.PeakLiveNodes, ss.CacheHitRate, ss.Rel.ImageCalls
		row.ReachableStates, row.ReachIters = cold.ReachableStates, cold.ReachIters
	case "warm_query":
		var walls []time.Duration
		for i := 0; i < 7; i++ {
			warm, wall := query(sv, req, truth)
			if !warm.Warm {
				t.Fatal("repeat query not warm")
			}
			walls = append(walls, wall)
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		row.WallMS = millis(walls[len(walls)/2])
		row.WarmSpeedup = float64(coldWall) / float64(walls[len(walls)/2])
	case "sustained":
		const hammerClients, perClient = 4, 100
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < hammerClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if _, err := sv.Check(req); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		hammer := time.Since(t0)
		row.WallMS, row.Queries = millis(hammer), hammerClients*perClient
		row.QPS = hammerClients * perClient / hammer.Seconds()
	case "warm_restart":
		if err := sv.Cache.FlushAll(); err != nil {
			t.Fatal(err)
		}
		sv2 := newServer()
		// Passing specs only: a counterexample's witness would run
		// image steps of its own.
		restart, wall := query(sv2, &smvd.CheckRequest{Model: src, Specs: specs[:2]}, truth[:2])
		if !restart.Warm || restart.WarmSource != "disk" {
			t.Fatalf("restart not disk-warm: warm=%v source=%q", restart.Warm, restart.WarmSource)
		}
		row.WallMS = millis(wall)
		row.ReachableStates, row.ReachIters = restart.ReachableStates, restart.ReachIters
		row.ImageCalls = session(sv2).Rel.ImageCalls
		row.WarmSpeedup = float64(coldWall) / float64(wall)
		row.Note = "compile re-runs on restart; reach/fair/sift restored from disk"
	default:
		t.Fatalf("unknown smvd phase %q", phase)
	}
}

// benchCheck is one acceptance assertion over recorded rows; keys
// names the rows it reads, in the order ok receives them.
type benchCheck struct {
	name string
	keys []benchKey
	ok   func(r []*benchRow) error
}

// benchChecks returns the acceptance assertions a recording must pass.
func benchChecks(cases []benchCase) []benchCheck {
	key := func(model, config string, workers int, workload string) benchKey {
		return benchKey{model, config, workers, workload}
	}
	k2, k4, ring := "scaled-arbiter-k2", "scaled-arbiter-k4", "scaled-ring-8"
	checks := []benchCheck{
		{"8 cells: partitioned bfs-10 completes below the aborted monolithic build",
			[]benchKey{key(k4, "partitioned", 1, "bfs-10"), key(k4, "monolithic", 1, "trans-materialization")},
			func(r []*benchRow) error {
				if r[0].Aborted || !r[1].Aborted || r[0].PeakLiveNodes >= r[1].PeakLiveNodes {
					return fmt.Errorf("partitioned aborted=%v peak %d, monolithic aborted=%v peak %d",
						r[0].Aborted, r[0].PeakLiveNodes, r[1].Aborted, r[1].PeakLiveNodes)
				}
				return nil
			}},
		{"4 cells: partitioned beats monolithic on wall time and peak",
			[]benchKey{key(k2, "partitioned", 1, "reachable+ex3"), key(k2, "monolithic", 1, "reachable+ex3")},
			func(r []*benchRow) error {
				if r[0].WallMS >= r[1].WallMS || r[0].PeakLiveNodes >= r[1].PeakLiveNodes {
					return fmt.Errorf("partitioned (%.1fms, %d nodes) vs monolithic (%.1fms, %d nodes)",
						r[0].WallMS, r[0].PeakLiveNodes, r[1].WallMS, r[1].PeakLiveNodes)
				}
				return nil
			}},
		{"8 cells: sifting swaps and peaks below the unsifted run",
			[]benchKey{key(k4, "partitioned+sift", 1, "bfs-10"), key(k4, "partitioned", 1, "bfs-10")},
			func(r []*benchRow) error {
				if r[0].SiftEvents == 0 || r[0].SiftSwaps == 0 || r[0].PeakLiveNodes >= r[1].PeakLiveNodes {
					return fmt.Errorf("%d sift events, %d swaps, peak %d vs %d unsifted",
						r[0].SiftEvents, r[0].SiftSwaps, r[0].PeakLiveNodes, r[1].PeakLiveNodes)
				}
				return nil
			}},
	}
	var scaledLTL []benchKey
	for _, c := range cases {
		if !isSpec(c.workload) {
			continue
		}
		want := c.want
		checks = append(checks, benchCheck{"verdict " + c.model + " " + c.workload, []benchKey{c.benchKey},
			func(r []*benchRow) error {
				if r[0].Holds == nil || *r[0].Holds != want {
					return fmt.Errorf("recorded verdict differs from scenarioVerdicts (%v)", want)
				}
				return nil
			}})
		if (c.model == "hanoi-7" || c.model == "chase-16") && strings.HasPrefix(c.workload, "ltl ") {
			scaledLTL = append(scaledLTL, c.benchKey)
		}
	}
	checks = append(checks, benchCheck{"a scaled LTL product triggers auto-reordering", scaledLTL,
		func(r []*benchRow) error {
			for _, row := range r {
				if row.SiftEvents > 0 {
					return nil
				}
			}
			return fmt.Errorf("no sift event in %d rows", len(r))
		}})
	for _, w := range []int{2, 4} {
		checks = append(checks, benchCheck{fmt.Sprintf("ring-8: disjunctive workers=%d batches in parallel and beats partitioned", w),
			[]benchKey{key(ring, "disjunctive", w, "reachable+ex3"), key(ring, "partitioned", 1, "reachable+ex3")},
			func(r []*benchRow) error {
				d, p := r[0], r[1]
				switch {
				case d.ParallelBatches == 0:
					return fmt.Errorf("no parallel batches")
				case d.PeakLiveNodes >= p.PeakLiveNodes && d.WallMS >= p.WallMS:
					return fmt.Errorf("disjunctive (peak %d, %.1fms) beats partitioned (peak %d, %.1fms) on neither axis",
						d.PeakLiveNodes, d.WallMS, p.PeakLiveNodes, p.WallMS)
				case d.ReachableStates != p.ReachableStates:
					return fmt.Errorf("reachable count differs: %v vs %v", d.ReachableStates, p.ReachableStates)
				}
				return nil
			}})
	}
	// The parallel sweep: same counts at every worker count, parallel
	// sections really ran, and the ring's shared-manager peak stays
	// under the retired scratch-arena schedule's ~51k nodes.
	sweeps := []benchKey{key(k4, "partitioned", 1, "bfs-10"), key(ring, "disjunctive", 1, "reachable")}
	for _, seq := range sweeps {
		for _, w := range []int{2, 4, 8} {
			par := seq
			par.workers = w
			checks = append(checks, benchCheck{fmt.Sprintf("%s workers=%d: parallel sections, equal counts", seq.model, w),
				[]benchKey{seq, par},
				func(r []*benchRow) error {
					switch {
					case r[1].ReachableStates != r[0].ReachableStates:
						return fmt.Errorf("reachable count differs: %v vs %v", r[1].ReachableStates, r[0].ReachableStates)
					case r[1].ParallelSections == 0:
						return fmt.Errorf("no parallel sections ran")
					case par.model == ring && r[1].PeakLiveNodes >= 51_000:
						return fmt.Errorf("peak %d nodes exceeds the old scratch schedule's ~51k", r[1].PeakLiveNodes)
					}
					return nil
				}})
		}
	}
	// Wall time: where goroutines can run in parallel, workers=8 beats
	// sequential on some sweep and workers=2 beats it on the arbiter
	// (the gate that keeps the parallel engine, ROADMAP "Engine diet").
	// On one P parallel cannot win; it must stay within bounded
	// overhead.
	wide := func(k benchKey, w int) benchKey { k.workers = w; return k }
	checks = append(checks, benchCheck{"parallel wall time",
		[]benchKey{sweeps[0], wide(sweeps[0], 2), wide(sweeps[0], 8), sweeps[1], wide(sweeps[1], 8)},
		func(r []*benchRow) error {
			if runtime.GOMAXPROCS(0) == 1 {
				for _, p := range [][2]*benchRow{{r[0], r[2]}, {r[3], r[4]}} {
					if p[1].WallMS > 3*p[0].WallMS+10 {
						return fmt.Errorf("%s: workers=8 wall %.1fms > 3x sequential %.1fms at GOMAXPROCS=1", p[0].Model, p[1].WallMS, p[0].WallMS)
					}
				}
				return nil
			}
			if r[2].WallMS >= r[0].WallMS && r[4].WallMS >= r[3].WallMS {
				return fmt.Errorf("workers=8 beat sequential wall time on no sweep (%.1f vs %.1fms, %.1f vs %.1fms)",
					r[2].WallMS, r[0].WallMS, r[4].WallMS, r[3].WallMS)
			}
			if r[1].WallMS >= r[0].WallMS {
				return fmt.Errorf("%s: workers=2 median wall %.1fms does not beat workers=1 median %.1fms", k4, r[1].WallMS, r[0].WallMS)
			}
			return nil
		}})
	smvdKey := func(phase string) benchKey { return key("arbiter-8", "partitioned", 1, "smvd "+phase) }
	checks = append(checks,
		benchCheck{"smvd: warm query at least 5x faster than cold", []benchKey{smvdKey("warm_query")},
			func(r []*benchRow) error {
				if r[0].WarmSpeedup < 5 {
					return fmt.Errorf("warm speedup %.1fx", r[0].WarmSpeedup)
				}
				return nil
			}},
		benchCheck{"smvd: disk-warm restart skips reachability", []benchKey{smvdKey("warm_restart"), smvdKey("cold_compile")},
			func(r []*benchRow) error {
				if r[0].ImageCalls != 0 || r[0].ReachableStates != r[1].ReachableStates || r[0].ReachIters != r[1].ReachIters {
					return fmt.Errorf("restart ran %d image calls, reach %v/%d vs cold %v/%d",
						r[0].ImageCalls, r[0].ReachableStates, r[0].ReachIters, r[1].ReachableStates, r[1].ReachIters)
				}
				return nil
			}})
	return checks
}

// TestBenchTable checks the case table without recording: identities
// are unique and every row an acceptance assertion reads is a case.
func TestBenchTable(t *testing.T) {
	cases, err := benchCases()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[benchKey]bool{}
	for _, c := range cases {
		if seen[c.benchKey] {
			t.Errorf("duplicate case %+v", c.benchKey)
		}
		seen[c.benchKey] = true
	}
	for _, ck := range benchChecks(cases) {
		if len(ck.keys) == 0 {
			t.Errorf("%s: reads no rows", ck.name)
		}
		for _, k := range ck.keys {
			if !seen[k] {
				t.Errorf("%s: no case %+v", ck.name, k)
			}
		}
	}
}

func TestRecordBench(t *testing.T) {
	if os.Getenv("BENCH_RECORD") != "1" {
		t.Skip("set BENCH_RECORD=1 to record BENCH_rows.json")
	}
	start := time.Now()
	cases, err := benchCases()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	sweeps := map[string][]int{}
	for i, c := range cases {
		id := c.model + "|" + c.workload
		if _, ok := sweeps[id]; !ok {
			order = append(order, id)
		}
		sweeps[id] = append(sweeps[id], i)
	}
	host := hostFingerprint()
	rows := make([]benchRow, len(cases))
	for _, id := range order {
		sweep := sweeps[id]
		samples := make([][]benchRow, len(sweep))
		for rep := 0; rep < benchReps; rep++ {
			for i := range sweep {
				j := (i + rep) % len(sweep)
				samples[j] = append(samples[j], runCase(t, cases[sweep[j]]))
			}
		}
		for j, runs := range samples {
			c := cases[sweep[j]]
			sort.Slice(runs, func(a, b int) bool { return runs[a].WallMS < runs[b].WallMS })
			for _, r := range runs[1:] {
				if c.workers == 1 && r.counters() != runs[0].counters() {
					t.Errorf("%+v: counters differ between repetitions:\n%s\n%s", c.benchKey, r.counters(), runs[0].counters())
				} else if r.ReachableStates != runs[0].ReachableStates {
					t.Errorf("%+v: reachable count differs between repetitions: %v vs %v", c.benchKey, r.ReachableStates, runs[0].ReachableStates)
				}
			}
			rows[sweep[j]] = runs[len(runs)/2]
			rows[sweep[j]].Host = host
		}
	}

	var out bytes.Buffer
	out.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		if i < len(rows)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]\n")
	if err := os.WriteFile("BENCH_rows.json", out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_rows.json: %d rows, %d repetitions each, in %v", len(rows), benchReps, time.Since(start).Round(time.Second))

	byKey := map[benchKey]*benchRow{}
	for i := range rows {
		byKey[cases[i].benchKey] = &rows[i]
	}
	for _, ck := range benchChecks(cases) {
		r := make([]*benchRow, len(ck.keys))
		for i, k := range ck.keys {
			r[i] = byKey[k]
		}
		if err := ck.ok(r); err != nil {
			t.Errorf("%s: %v", ck.name, err)
		}
	}
}
