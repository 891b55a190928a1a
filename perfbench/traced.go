package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/kripke"
	"repro/internal/ltl"
	"repro/internal/mc"
	"repro/internal/smv"
	"repro/internal/smvd"
)

// The traced run replays a workload in-process through the same public
// calls cmd/smv (cold-corpus) or an smvd session (the smvd workloads)
// makes, with a span around every call into a layer. Passes alternate
// between spans on and spans off; the per-layer metrics come from the
// traced passes and the tracing overhead from comparing the two kinds.

// session is one compiled model with its checker and witness generator:
// the state cmd/smv builds for one run and an smvd session keeps.
type session struct {
	m       *model
	key     string // smvd content key (churn replay)
	cfg     smvd.Config
	module  *smv.Module
	c       *smv.Compiled
	checker *mc.Checker
	gen     *core.Generator
	base    counters // counters at the last account
}

// counters snapshots every exported counter a session's layers keep.
type counters struct {
	bdd bdd.Stats
	rel kripke.RelStats
	mc  mc.Stats
	gen core.GenStats
}

func (s *session) snapshot() counters {
	return counters{bdd: s.c.S.M.Stats, rel: s.c.S.RelStats(), mc: s.checker.Stats, gen: s.gen.Stats}
}

// passStats is what one traced pass recorded.
type passStats struct {
	self map[string]time.Duration // span self time by span name
	sum  map[string]float64       // counters, summed over the pass
	peak map[string]float64       // high-water marks
	// check and witness time of the failing CTL specs (core.witness_share)
	check, witness time.Duration
	wall           time.Duration
}

// value is a counter's sum or, for a high-water mark, its peak.
func (p *passStats) value(name string) float64 {
	if v, ok := p.peak[name]; ok {
		return v
	}
	return p.sum[name]
}

// seitzSpec is the paper's failing liveness property of the arbiter.
const seitzSpec = "AG (tr1.out -> AF ta1.out)"

type replay struct {
	e      *env
	rep    *report
	t      *tracer
	cur    *passStats // nil while spans are off
	passes []*passStats
	plain  []time.Duration // wall time of the untraced passes
	rows   []string        // failing-spec rows of the first traced pass

	seitzReach, seitzStates, seitzCycle float64
}

func newReplay(e *env, rep *report) *replay {
	return &replay{e: e, rep: rep, t: newTracer()}
}

func (r *replay) add(name string, v float64) {
	if r.cur != nil {
		r.cur.sum[name] += v
	}
}

func (r *replay) peak(name string, v float64) {
	if r.cur != nil && v > r.cur.peak[name] {
		r.cur.peak[name] = v
	}
}

// passesUntil runs pass(k) for k = 0, 1, ... alternating spans on and
// off, until window has passed and at least two traced passes and one
// untraced pass are done.
func (r *replay) passesUntil(window time.Duration, pass func(k int)) {
	end := time.Now().Add(window)
	for k := 0; time.Now().Before(end) || len(r.passes) < 2 || len(r.plain) < 1; k++ {
		traced := k%2 == 0
		r.t.on = traced
		if traced {
			r.cur = &passStats{sum: map[string]float64{}, peak: map[string]float64{}}
		}
		t0 := time.Now()
		pass(k)
		wall := time.Since(t0)
		if traced {
			r.cur.wall = wall
			r.cur.self = r.t.takeSelf()
			r.passes = append(r.passes, r.cur)
			r.cur = nil
		} else {
			r.plain = append(r.plain, wall)
		}
	}
	r.t.on = false
}

// op runs one operation (a corpus entry or a request) under a root span
// and counts it.
func (r *replay) op(f func() error) {
	r.t.op++
	var err error
	r.t.do("op", func() { err = f() })
	r.rep.op(err)
}

// account adds a session's counter deltas since its last account to the
// current pass. Reachability's own images are the structure's image
// calls minus the witness walk's single-state images.
func (r *replay) account(s *session) {
	now, b := s.snapshot(), s.base
	s.base = now
	if r.cur == nil {
		return
	}
	r.addBDD(now.bdd, b.bdd, s.c.S.M)
	walk := float64(now.gen.ImageCalls - b.gen.ImageCalls)
	r.add("kripke.image_calls", float64(now.rel.ImageCalls-b.rel.ImageCalls)-walk)
	r.add("kripke.preimage_calls", float64(now.rel.PreimageCalls-b.rel.PreimageCalls))
	r.add("kripke.cluster_steps", float64(now.rel.ClusterSteps-b.rel.ClusterSteps))
	r.add("kripke.disjunct_steps", float64(now.rel.DisjunctSteps-b.rel.DisjunctSteps))
	r.peak("kripke.peak_chain_nodes", float64(now.rel.PeakLiveNodes))
	r.add("mc.eu_iterations", float64(now.mc.EUIterations-b.mc.EUIterations))
	r.add("mc.eg_iterations", float64(now.mc.EGIterations-b.mc.EGIterations))
	r.add("mc.fair_eg_outer", float64(now.mc.FairEGOuter-b.mc.FairEGOuter))
	r.add("mc.memo_hits", float64(now.mc.MemoHits-b.mc.MemoHits))
	r.peak("mc.peak_nodes", float64(now.mc.PeakNodes))
	r.add("core.ring_steps", float64(now.gen.RingSteps-b.gen.RingSteps))
	r.add("core.restarts", float64(now.gen.Restarts-b.gen.Restarts))
	r.add("core.closure_attempts", float64(now.gen.ClosureAttempts-b.gen.ClosureAttempts))
	r.add("core.image_calls", walk)
	r.peak("bdd.peak_live_nodes", float64(max(now.mc.PeakNodes, now.rel.PeakLiveNodes)))
}

// addBDD adds a manager's kernel counter deltas. The ITE hit rate
// leaves out AndExists hits, which CacheHits includes but CacheLookups
// does not.
func (r *replay) addBDD(now, b bdd.Stats, m *bdd.Manager) {
	r.add("bdd.ite_calls", float64(now.ITECalls-b.ITECalls))
	r.add("bdd.ite_hits", float64((now.CacheHits-now.AndExistsHits)-(b.CacheHits-b.AndExistsHits)))
	r.add("bdd.ite_lookups", float64(now.CacheLookups-b.CacheLookups))
	r.add("bdd.andexists_calls", float64(now.AndExistsCalls-b.AndExistsCalls))
	r.add("bdd.andexists_hits", float64(now.AndExistsHits-b.AndExistsHits))
	r.add("bdd.andexists_lookups", float64(now.AndExistsLookups-b.AndExistsLookups))
	r.add("bdd.gc_runs", float64(now.GCRuns-b.GCRuns))
	r.add("bdd.nodes_freed", float64(now.NodesFreed-b.NodesFreed))
	r.add("bdd.cache_growths", float64(now.CacheGrowths-b.CacheGrowths))
	r.add("bdd.sift_events", float64(now.AutoReorders-b.AutoReorders))
	r.add("bdd.sift_swaps", float64(now.SiftSwaps-b.SiftSwaps))
	r.add("bdd.sift_ms", float64(now.ReorderTime-b.ReorderTime)/float64(time.Millisecond))
	r.peak("bdd.unique_load", m.UniqueTableLoadFactor())
}

// compile parses and compiles a model and configures its engine, as
// cmd/smv and smvd.newSession do.
func (r *replay) compile(m *model, src string, cfg smvd.Config) (*session, error) {
	s := &session{m: m, cfg: cfg}
	var err error
	r.t.do("smv.parse", func() { s.module, err = smv.ParseModule(src) })
	if err != nil {
		return nil, err
	}
	r.t.do("smv.compile", func() { s.c, err = smv.CompileWith(s.module, smv.CompileOptions{}) })
	if err != nil {
		return nil, err
	}
	if cfg.Reorder {
		s.c.S.M.EnableAutoReorder(nil)
	}
	if cfg.Disjunctive && s.c.S.NumDisjuncts() > 0 {
		s.c.S.EnableDisjunct(true)
	}
	s.checker = mc.New(s.c.S)
	s.gen = core.NewGenerator(s.checker)
	r.add("smv.clusters", float64(s.c.S.NumClusters()))
	return s, nil
}

func (r *replay) noteSeitzReach(s *session, states float64) {
	if s.m.name == "seitz" {
		r.seitzReach = states
	}
}

// checkCTL decides one CTL spec and, when it fails, builds, validates
// and renders its counterexample: CheckInit, then CounterexampleInit
// (whose own check hits the subformula memo, so its time is the
// witness's), then ValidatePath and TraceString.
func (r *replay) checkCTL(s *session, f *ctl.Formula, source string) error {
	if err := s.c.ResolveSpecAtoms(f); err != nil {
		return err
	}
	var holds bool
	var err error
	dCheck := r.t.do("mc.check", func() { holds, _, err = s.checker.CheckInit(f) })
	if err != nil {
		return fmt.Errorf("%s: %s: %w", s.m.name, source, err)
	}
	if err := s.m.checkVerdict(false, source, holds); err != nil || holds {
		return err
	}
	var tr *core.Trace
	dWit := r.t.do("core.witness", func() { _, tr, err = s.gen.CounterexampleInit(f) })
	if err == nil && tr == nil {
		err = fmt.Errorf("no counterexample")
	}
	if err != nil {
		return fmt.Errorf("%s: %s: %w", s.m.name, source, err)
	}
	r.t.do("core.validate", func() { err = core.ValidatePath(s.c.S, tr) })
	if err != nil {
		return fmt.Errorf("%s: %s: counterexample fails validation: %w", s.m.name, source, err)
	}
	r.t.do("smv.render", func() { _ = s.c.TraceString(tr) })
	if s.m.name == "seitz" && normSpec(source) == normSpec(seitzSpec) {
		r.seitzStates, r.seitzCycle = float64(tr.Len()), float64(tr.CycleLen())
	}
	if r.cur != nil {
		r.cur.check += dCheck
		r.cur.witness += dWit
		r.add("core.trace_states", float64(tr.Len()))
		if len(r.passes) == 0 {
			r.rows = append(r.rows, fmt.Sprintf("failing spec %-22s %-40s check %8.2f ms  witness %8.2f ms  share %.3f  trace %d states (cycle %d)",
				sessionLabel(s), source, ms(dCheck), ms(dWit), ratio(ms(dWit), ms(dCheck)+ms(dWit)), tr.Len(), tr.CycleLen()))
		}
	}
	return nil
}

// checkLTL compiles the tableau product of one LTL spec on its own
// manager and checks it; a counterexample lasso is replayed against the
// formula and rendered. asSession adds the ValidatePath an smvd session
// makes and renders with FormatLassoByVars, as the session does.
func (r *replay) checkLTL(s *session, f *ltl.Formula, source string, asSession bool) error {
	var p *smv.LTLProduct
	var err error
	r.t.do("ltl.compile", func() { p, err = smv.CompileLTLWith(s.module, f, source, smv.CompileOptions{}) })
	if err != nil {
		return fmt.Errorf("%s: %s: %w", s.m.name, source, err)
	}
	if s.cfg.Reorder {
		p.S.M.EnableAutoReorder(nil)
	}
	if s.cfg.Disjunctive && p.S.NumDisjuncts() > 0 {
		p.S.EnableDisjunct(true)
	}
	ch := mc.New(p.S)
	defer ch.Close()
	var holds bool
	var tr *core.Trace
	r.t.do("ltl.check", func() { holds, tr, err = p.Check(ch) })
	if err != nil {
		return fmt.Errorf("%s: %s: %w", s.m.name, source, err)
	}
	if err := s.m.checkVerdict(true, source, holds); err != nil {
		return err
	}
	if !holds {
		if asSession {
			r.t.do("core.validate", func() { err = core.ValidatePath(p.S, tr) })
			if err != nil {
				return fmt.Errorf("%s: %s: lasso fails validation: %w", s.m.name, source, err)
			}
		}
		r.t.do("ltl.replay", func() { err = p.ReplayCounterexample(tr) })
		if err != nil {
			return fmt.Errorf("%s: %s: lasso fails replay: %w", s.m.name, source, err)
		}
		r.t.do("smv.render", func() {
			if asSession {
				_ = p.FormatLassoByVars(tr)
			} else {
				_ = p.TraceString(tr)
			}
		})
		r.add("core.trace_states", float64(tr.Len()))
		if r.cur != nil && len(r.passes) == 0 {
			r.rows = append(r.rows, fmt.Sprintf("failing LTL  %-22s %-40s lasso %d states (cycle %d)",
				sessionLabel(s), source, tr.Len(), tr.CycleLen()))
		}
	}
	rel := p.S.RelStats()
	r.add("ltl.tableau_vars", float64(len(p.ElemVars)))
	r.peak("ltl.peak_live_nodes", float64(rel.PeakLiveNodes))
	r.peak("bdd.peak_live_nodes", float64(max(ch.Stats.PeakNodes, rel.PeakLiveNodes)))
	r.addBDD(p.S.M.Stats, bdd.Stats{}, p.S.M)
	return nil
}

func sessionLabel(s *session) string {
	l := s.m.name
	if s.cfg.Reorder {
		l += " -reorder"
	}
	if s.cfg.Disjunctive {
		l += " -disjunctive"
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanMetrics maps span names to the per-layer time metrics.
var spanMetrics = map[string]string{
	"smv.parse":        "smv.parse_ms",
	"smv.compile":      "smv.compile_ms",
	"smv.render":       "smv.render_ms",
	"kripke.reach":     "kripke.reach_ms",
	"kripke.deadlock":  "kripke.deadlock_ms",
	"mc.fair":          "mc.fair_ms",
	"mc.check":         "mc.check_ms",
	"core.witness":     "core.witness_ms",
	"core.validate":    "core.validate_ms",
	"ltl.compile":      "ltl.product_compile_ms",
	"ltl.check":        "ltl.check_ms",
	"ltl.replay":       "ltl.replay_ms",
	"smvd.record_load": "smvd.record_load_ms",
	"smvd.record_save": "smvd.record_save_ms",
}

// finish turns the traced passes into the per-layer metrics (per pass:
// the median over passes of self times and counter sums, the highest
// peak, ratios over all traced passes), adds the report lines and
// writes the spans out. Metrics the workload does not exercise read 0.
func (r *replay) finish(workload string) error {
	v := r.rep.values
	for span, name := range spanMetrics {
		var xs []float64
		for _, p := range r.passes {
			xs = append(xs, ms(p.self[span]))
		}
		v[name] = median(xs)
	}
	var total passStats
	total.sum = map[string]float64{}
	for _, p := range r.passes {
		for k, x := range p.sum {
			total.sum[k] += x
		}
		total.check += p.check
		total.witness += p.witness
	}
	v["bdd.ite_hit_rate"] = ratio(total.sum["bdd.ite_hits"], total.sum["bdd.ite_lookups"])
	v["bdd.andexists_hit_rate"] = ratio(total.sum["bdd.andexists_hits"], total.sum["bdd.andexists_lookups"])
	v["core.witness_share"] = ratio(ms(total.witness), ms(total.check)+ms(total.witness))
	v["core.seitz_reachable_states"] = r.seitzReach
	v["core.seitz_trace_states"] = r.seitzStates
	v["core.seitz_cycle_states"] = r.seitzCycle
	for _, d := range perLayer {
		if _, set := v[d.name]; set {
			continue
		}
		var sums []float64
		hi := 0.0
		for _, p := range r.passes {
			sums = append(sums, p.sum[d.name])
			hi = max(hi, p.peak[d.name])
		}
		if hi > 0 {
			v[d.name] = hi
		} else {
			v[d.name] = median(sums)
		}
	}
	var traced, plain []float64
	for _, p := range r.passes {
		traced = append(traced, ms(p.wall))
	}
	for _, d := range r.plain {
		plain = append(plain, ms(d))
	}
	v["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	r.rep.linef("traced run: %d passes with spans (median %.1f ms), %d without (median %.1f ms)",
		len(traced), median(traced), len(plain), median(plain))
	r.rep.lines = append(r.rep.lines, r.rows...)
	if r.seitzReach != 0 {
		r.rep.linef("seitz: %.0f reachable states; %s: %.0f-state counterexample, %.0f-state cycle (paper: 33,633 states, 78/30)",
			r.seitzReach, seitzSpec, r.seitzStates, r.seitzCycle)
	}
	path := filepath.Join(r.e.out, "run", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, r.e.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := r.t.write(path); err != nil {
		return err
	}
	r.rep.linef("spans: %d written to %s", len(r.t.spans), path)
	return nil
}

// repeatCounts are the cold-corpus counts that should repeat exactly
// from one pass to the next; the traced run prints them per pass and
// the self-test asserts it.
var repeatCounts = []string{"kripke.image_calls", "bdd.ite_calls", "core.ring_steps", "core.trace_states", "bdd.peak_live_nodes"}

func coldTraced(e *env) (*report, error) {
	rep := newReport()
	r, err := coldReplay(e, rep, e.window)
	if err != nil {
		return nil, err
	}
	for _, name := range repeatCounts {
		var vals []string
		for _, p := range r.passes {
			vals = append(vals, fmt.Sprintf("%.0f", p.value(name)))
		}
		rep.linef("per traced pass %-20s %s", name, strings.Join(vals, " "))
	}
	return rep, r.finish("cold-corpus")
}

// coldReplay performs, per corpus entry, the calls cmd/smv -reachable
// makes: parse, compile, deadlock check, reachability, then every SPEC
// (check, counterexample, validation, rendering) and every LTLSPEC
// (product, emptiness check, lasso replay, rendering).
func coldReplay(e *env, rep *report, window time.Duration) (*replay, error) {
	c, err := prepareCorpus(e)
	if err != nil {
		return nil, err
	}
	r := newReplay(e, rep)
	r.passesUntil(window, func(int) {
		for _, en := range c.entries {
			r.op(func() error { return r.coldEntry(c, en) })
		}
	})
	return r, nil
}

func (r *replay) coldEntry(c *corpus, en entry) error {
	m := c.models[en.model]
	s, err := r.compile(m, m.src, smvd.Config{Reorder: en.reorder, Disjunctive: en.disjunctive})
	if err != nil {
		return err
	}
	S := s.c.S
	r.t.do("kripke.deadlock", func() { S.DeadlockStates() })
	var reach bdd.Ref
	var iters int
	var states float64
	r.t.do("kripke.reach", func() {
		reach, iters = S.Reachable()
		states = S.CountStates(reach)
	})
	r.add("kripke.reach_iters", float64(iters))
	if want := c.expectedReachable(m.name); want != 0 && states != want {
		return fmt.Errorf("%s: %.0f reachable states, expected %.0f", en, states, want)
	}
	r.noteSeitzReach(s, states)
	// cmd/smv computes the fair set lazily inside the first fair check;
	// forcing it first attributes it to mc.fair.
	r.t.do("mc.fair", func() { s.checker.Fair() })
	for _, sp := range s.module.Specs {
		if err := r.checkCTL(s, sp.Formula, sp.Source); err != nil {
			return err
		}
	}
	for _, sp := range s.module.LTLSpecs {
		if err := r.checkLTL(s, sp.Formula, sp.Source, false); err != nil {
			return err
		}
	}
	r.account(s)
	return nil
}

// openSession compiles a model for a session, with the reachable-set
// cache on (smvd's newSession).
func (r *replay) openSession(m *model, src string, cfg smvd.Config) (*session, error) {
	s, err := r.compile(m, src, cfg)
	if err != nil {
		return nil, err
	}
	s.c.S.EnableReachableCache()
	return s, nil
}

// ensureReady runs a session's one-time fixpoints (smvd's ensureReady):
// the reachable set, installed as the care set, and the fair set.
func (r *replay) ensureReady(s *session) {
	var states float64
	r.t.do("kripke.reach", func() {
		states = s.c.S.CountStates(s.checker.UseReachableCareSet())
	})
	_, iters, _ := s.c.S.ReachableCached()
	r.add("kripke.reach_iters", float64(iters))
	r.noteSeitzReach(s, states)
	r.t.do("mc.fair", func() { s.checker.Fair() })
}

// query answers one request on a ready session, as smvd's
// Session.query does.
func (r *replay) query(s *session, req smvd.CheckRequest) error {
	for _, spec := range req.Specs {
		f, err := ctl.Parse(spec)
		if err != nil {
			return err
		}
		if err := r.checkCTL(s, f, spec); err != nil {
			return err
		}
	}
	for _, spec := range req.LTL {
		f, err := ltl.Parse(spec)
		if err != nil {
			return err
		}
		if err := r.checkLTL(s, f, spec, true); err != nil {
			return err
		}
	}
	return nil
}

// hotTraced reads the smvd layer from a real server, then replays the
// hot sequence on one warmed session per model.
func hotTraced(e *env) (*report, error) {
	l, err := newHotLoad(e)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if err := l.serverLayers(e, rep, e.window/2); err != nil {
		return nil, err
	}
	if hr := rep.values["smvd.session_hit_rate"]; hr != 1 {
		rep.violate("smvd-hot: session hit rate %v in the timed window, want 1", hr)
	}
	r := newReplay(e, rep)
	sessions := make([]*session, len(l.keys))
	for i := range l.keys {
		req := l.request(e.seed, request{key: i})
		s, err := r.openSession(l.models[i], req.Model, req.Config)
		if err != nil {
			return nil, err
		}
		r.ensureReady(s)
		r.op(func() error { return r.query(s, req) })
		s.base = s.snapshot()
		sessions[i] = s
	}
	seq := sequence(e.seed, len(l.keys), 0, 1<<16)
	n := len(l.keys)
	r.passesUntil(e.window/2, func(k int) {
		for _, q := range seq[k*n : (k+1)*n] {
			s := sessions[q.key]
			req := l.request(e.seed, q)
			r.op(func() error { return r.query(s, req) })
			r.account(s)
		}
	})
	if err := r.finish("smvd-hot"); err != nil {
		return nil, err
	}
	if ic := rep.values["kripke.image_calls"]; ic != 0 {
		rep.violate("smvd-hot: kripke.image_calls = %v, want 0 (reachability must not rerun)", ic)
	}
	return rep, nil
}

// churnTraced reads the smvd layer from a real server, then replays the
// churn sequence in-process: a two-slot LRU of sessions over a
// DiskStore, compiling and restoring (or cold-checking) on every miss
// and saving the record of every evicted session.
func churnTraced(e *env) (*report, error) {
	l, err := newChurnLoad(e)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if err := l.serverLayers(e, rep, e.window/2); err != nil {
		return nil, err
	}
	if rep.values["smvd.disk_warm_starts"] == 0 || rep.values["smvd.evictions_lru"] == 0 {
		rep.violate("smvd-churn: %v disk warm starts and %v LRU evictions in the timed window, want both > 0",
			rep.values["smvd.disk_warm_starts"], rep.values["smvd.evictions_lru"])
	}
	dir, err := e.scratch("churn-replay-records")
	if err != nil {
		return nil, err
	}
	store, err := smvd.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	r := newReplay(e, rep)
	lru := &sessionLRU{max: 2}
	for i := range l.keys {
		req := l.request(e.seed, request{key: i})
		r.op(func() error { return r.churnRequest(lru, store, l.models[i], req) })
	}
	for _, s := range lru.list {
		s.base = s.snapshot()
	}
	// A pass of 30 requests holds every key five times and three fresh
	// edits, so traced and untraced passes see the same mix.
	seq := sequence(e.seed, len(l.keys), l.editEvery, 1<<16)
	const block = 30
	r.passesUntil(e.window/2, func(k int) {
		for _, q := range seq[k*block : (k+1)*block] {
			req := l.request(e.seed, q)
			r.op(func() error { return r.churnRequest(lru, store, l.models[q.key], req) })
		}
	})
	rep.values["smvd.record_bytes"], err = recordBytes(dir)
	if err != nil {
		return nil, err
	}
	return rep, r.finish("smvd-churn")
}

// sessionLRU is the replay's session cache: most recent first.
type sessionLRU struct {
	max  int
	list []*session
}

func (c *sessionLRU) get(key string) *session {
	for i, s := range c.list {
		if s.key == key {
			copy(c.list[1:i+1], c.list[:i])
			c.list[0] = s
			return s
		}
	}
	return nil
}

// push adds a session in front and returns the evicted one, if any.
func (c *sessionLRU) push(s *session) *session {
	c.list = append([]*session{s}, c.list...)
	if len(c.list) <= c.max {
		return nil
	}
	victim := c.list[len(c.list)-1]
	c.list = c.list[:len(c.list)-1]
	return victim
}

func (r *replay) churnRequest(lru *sessionLRU, store *smvd.DiskStore, m *model, req smvd.CheckRequest) error {
	key := smvd.ModelKey(req.Model, req.Config)
	s := lru.get(key)
	if s == nil {
		var err error
		s, err = r.openSession(m, req.Model, req.Config)
		if err != nil {
			return err
		}
		s.key = key
		var reach, fair bdd.Ref
		var iters int
		var warm bool
		r.t.do("smvd.record_load", func() { reach, fair, iters, warm, err = store.Load(key, s.c.S.M) })
		if err == nil && warm {
			// smvd's warmStart: SetCareSet clears the fair cache, so the
			// seed comes after it.
			s.c.S.SetReachable(reach, iters)
			s.checker.SetCareSet(reach)
			s.checker.SeedFair(fair)
			r.noteSeitzReach(s, s.c.S.CountStates(reach))
		} else {
			r.ensureReady(s)
		}
		if victim := lru.push(s); victim != nil {
			if err := r.save(store, victim); err != nil {
				return err
			}
		}
	}
	err := r.query(s, req)
	r.account(s)
	return err
}

// save writes an evicted session's warm-start record.
func (r *replay) save(store *smvd.DiskStore, s *session) error {
	reach, iters, ok := s.c.S.ReachableCached()
	fair, okFair := s.checker.CachedFair()
	if !ok || !okFair {
		return nil
	}
	var err error
	r.t.do("smvd.record_save", func() { err = store.Save(s.key, s.cfg, s.c.S.M, reach, fair, iters) })
	return err
}

// recordBytes is the mean size of one warm-start record (its .bdd and
// .json files) in a store directory.
func recordBytes(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var bytes, records float64
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		if strings.HasSuffix(de.Name(), ".json") {
			records++
		}
		bytes += float64(info.Size())
	}
	return ratio(bytes, records), nil
}
