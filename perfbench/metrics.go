package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract: BENCHMARK.json lists the same names and units
// (the self-test compares them), every end-to-end run prints every
// entry of endToEnd, and every traced run prints every entry of
// perLayer.
type metricDef struct {
	name, unit string
	// ratio marks a metric that is a share of attempts; any value above 1
	// fails the run.
	ratio bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "check_s", unit: "s"},
	{name: "latency_ms.p50", unit: "ms"},
	{name: "latency_ms.p90", unit: "ms"},
	{name: "throughput_qps", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = []metricDef{
	{name: "smv.parse_ms", unit: "ms"},
	{name: "smv.compile_ms", unit: "ms"},
	{name: "smv.clusters", unit: "count"},
	{name: "smv.render_ms", unit: "ms"},

	{name: "kripke.reach_ms", unit: "ms"},
	{name: "kripke.deadlock_ms", unit: "ms"},
	{name: "kripke.reach_iters", unit: "count"},
	{name: "kripke.image_calls", unit: "count"},
	{name: "kripke.preimage_calls", unit: "count"},
	{name: "kripke.cluster_steps", unit: "count"},
	{name: "kripke.disjunct_steps", unit: "count"},
	{name: "kripke.peak_chain_nodes", unit: "count"},

	{name: "mc.fair_ms", unit: "ms"},
	{name: "mc.check_ms", unit: "ms"},
	{name: "mc.eu_iterations", unit: "count"},
	{name: "mc.eg_iterations", unit: "count"},
	{name: "mc.fair_eg_outer", unit: "count"},
	{name: "mc.memo_hits", unit: "count"},
	{name: "mc.peak_nodes", unit: "count"},

	{name: "core.witness_ms", unit: "ms"},
	{name: "core.witness_share", unit: "ratio", ratio: true},
	{name: "core.validate_ms", unit: "ms"},
	{name: "core.ring_steps", unit: "count"},
	{name: "core.restarts", unit: "count"},
	{name: "core.closure_attempts", unit: "count"},
	{name: "core.image_calls", unit: "count"},
	{name: "core.trace_states", unit: "count"},
	{name: "core.seitz_reachable_states", unit: "count"},
	{name: "core.seitz_trace_states", unit: "count"},
	{name: "core.seitz_cycle_states", unit: "count"},

	{name: "ltl.product_compile_ms", unit: "ms"},
	{name: "ltl.check_ms", unit: "ms"},
	{name: "ltl.replay_ms", unit: "ms"},
	{name: "ltl.tableau_vars", unit: "count"},
	{name: "ltl.peak_live_nodes", unit: "count"},

	{name: "bdd.ite_calls", unit: "count"},
	{name: "bdd.ite_hit_rate", unit: "ratio", ratio: true},
	{name: "bdd.andexists_calls", unit: "count"},
	{name: "bdd.andexists_hit_rate", unit: "ratio", ratio: true},
	{name: "bdd.gc_runs", unit: "count"},
	{name: "bdd.nodes_freed", unit: "count"},
	{name: "bdd.peak_live_nodes", unit: "count"},
	{name: "bdd.cache_growths", unit: "count"},
	{name: "bdd.unique_load", unit: "ratio"},
	{name: "bdd.sift_events", unit: "count"},
	{name: "bdd.sift_swaps", unit: "count"},
	{name: "bdd.sift_ms", unit: "ms"},

	{name: "smvd.session_hit_rate", unit: "ratio", ratio: true},
	{name: "smvd.disk_warm_starts", unit: "count"},
	{name: "smvd.evictions_lru", unit: "count"},
	{name: "smvd.memo_hits", unit: "count"},
	{name: "smvd.record_bytes", unit: "bytes"},
	{name: "smvd.record_load_ms", unit: "ms"},
	{name: "smvd.record_save_ms", unit: "ms"},
	{name: "smvd.hot_ms.p50", unit: "ms"},
	{name: "smvd.restore_ms.p50", unit: "ms"},
	{name: "smvd.cold_ms.p50", unit: "ms"},

	{name: "trace.overhead_pct", unit: "%"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
