// Command benchgate compares a freshly recorded BENCH_rows.json against
// the committed baseline and fails (exit 1) when any row regressed
// beyond a band of its group. It is the quality gate behind the CI
// bench-smoke job.
//
// Usage:
//
//	benchgate -baseline BENCH_rows.json -current new.json
//
// Every row names its group, and the group's bands (the bands table
// below) say which metrics are gated and how far each may move:
//
//   - peak_live_nodes is deterministic for a fixed model and schedule,
//     so a jump beyond the band is an algorithmic regression, not
//     jitter. The parallel group gets a wider band: speculative forking
//     makes transient allocation, and thus the sampled peak,
//     schedule-dependent.
//   - cache_hit_rate (computed-cache hits over lookups, all caches
//     combined) is inverted: a drop beyond the band fails.
//   - wall_ms and reorder_ms are gated only where a collapse is what
//     the band catches (an O(two levels) swap regressing to O(arena),
//     a parallel engine losing its speedup), with bands of 2x and
//     more, and baselines under timeFloorMS are not gated at all: a
//     ratio over a near-zero baseline is noise.
//   - warm_speedup, smvd's cold/warm wall-time ratio, cancels runner
//     speed out and is gated with a wide inverted band.
//
// A row's identity is its string- and bool-valued fields plus the
// numeric "workers"; "note" and "host" are left out, since they carry
// measurements and the recording machine. A baseline row missing from
// the current run fails the gate too: silently dropping a
// configuration is a coverage regression, not a pass. A flipped
// verdict ("holds") is such a missing row.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// band bounds how far one metric of a row may move against its
// baseline, in percent.
type band struct {
	metric string
	pct    float64
	higher bool    // higher is better: fail on a drop, not a rise
	floor  float64 // baselines below this are not gated
}

// timeFloorMS: wall times faster than this are not gated; a couple of
// milliseconds of scheduler noise would dominate any real signal.
const timeFloorMS = 5.0

var (
	peak     = band{metric: "peak_live_nodes", pct: 25}
	hitRate  = band{metric: "cache_hit_rate", pct: 25, higher: true}
	wall2x   = band{metric: "wall_ms", pct: 100, floor: timeFloorMS}
	wall2_5x = band{metric: "wall_ms", pct: 150, floor: timeFloorMS}
)

// bands is the band table, keyed by a row's group.
var bands = map[string][]band{
	// Sequential counters.
	"counters": {peak, hitRate},
	// Growth-triggered sifting: total reordering time too.
	"sift": {peak, hitRate, {metric: "reorder_ms", pct: 100, floor: timeFloorMS}},
	// The scenario corpus: spec checks whose wall time is gated.
	"wall": {peak, hitRate, wall2x},
	// The one-worker baselines of the parallel sweep.
	"parallel-seq": {peak, hitRate, wall2_5x},
	// Parallel rows: lossy-cache hit rates and sampled peaks move with
	// the runner's real parallelism, so only gross blowups fail.
	"parallel": {{metric: "peak_live_nodes", pct: 50}, wall2_5x, {metric: "cache_hit_rate", pct: 40, higher: true}},
	// The smvd session cache.
	"smvd": {peak, {metric: "warm_speedup", pct: 90, higher: true}},
}

type entry map[string]any

// key builds the identity string for a row: every string and bool
// field plus "workers", in sorted field order.
func key(e entry) string {
	fields := make([]string, 0, len(e))
	for k := range e {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	var b strings.Builder
	for _, k := range fields {
		if k == "note" || k == "host" {
			continue
		}
		switch v := e[k].(type) {
		case string:
			fmt.Fprintf(&b, "%s=%s|", k, v)
		case bool:
			fmt.Fprintf(&b, "%s=%v|", k, v)
		case float64:
			if k == "workers" {
				fmt.Fprintf(&b, "%s=%g|", k, v)
			}
		}
	}
	return b.String()
}

func load(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return out, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline BENCH_rows.json")
	currentPath := flag.String("current", "", "freshly recorded BENCH_rows.json")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgate -baseline old.json -current new.json")
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}
	byKey := make(map[string]entry, len(current))
	for _, e := range current {
		byKey[key(e)] = e
	}
	if failures := gate(baseline, byKey); failures > 0 {
		fmt.Printf("\nbenchgate: %d row%s regressed\n", failures, plural(failures))
		os.Exit(1)
	}
	fmt.Printf("\nbenchgate: %d rows within their group's bands\n", len(baseline))
}

// gate checks every baseline row against its current counterpart on
// every band of the row's group and returns the number of failed rows.
func gate(baseline []entry, byKey map[string]entry) int {
	failures := 0
	for _, base := range baseline {
		group, _ := base["group"].(string)
		bs, ok := bands[group]
		if !ok {
			fmt.Printf("UNKNOWN  %s — no bands for group %q\n", describe(base), group)
			failures++
			continue
		}
		cur, ok := byKey[key(base)]
		if !ok {
			fmt.Printf("MISSING  %s — row absent from current run\n", describe(base))
			failures++
			continue
		}
		failed := false
		for _, b := range bs {
			if !b.check(base, cur) {
				failed = true
			}
		}
		if failed {
			failures++
		}
	}
	return failures
}

// check gates one metric of a row and reports whether it passed. A
// baseline row without the metric passes; a current row that lost it
// fails.
func (b band) check(base, cur entry) bool {
	baseVal, ok := base[b.metric].(float64)
	if !ok {
		return true
	}
	curVal, ok := cur[b.metric].(float64)
	if !ok {
		fmt.Printf("MISSING  %s — current row lost field %q\n", describe(base), b.metric)
		return false
	}
	if baseVal <= 0 || baseVal < b.floor {
		fmt.Printf("skipped  %s — %s baseline %.3f below gate floor %.0f\n", describe(base), b.metric, baseVal, b.floor)
		return true
	}
	change := 100 * (curVal - baseVal) / baseVal
	regressed, improved := change > b.pct, change < 0
	if b.higher {
		regressed, improved = -change > b.pct, change > 0
	}
	switch {
	case regressed:
		fmt.Printf("REGRESS  %s — %s %.3f -> %.3f (%+.1f%%, band %.0f%%)\n", describe(base), b.metric, baseVal, curVal, change, b.pct)
		return false
	case improved:
		fmt.Printf("improved %s — %s %.3f -> %.3f\n", describe(base), b.metric, baseVal, curVal)
	default:
		fmt.Printf("ok       %s — %s %.3f -> %.3f\n", describe(base), b.metric, baseVal, curVal)
	}
	return true
}

// describe renders the human-readable identity of a row.
func describe(e entry) string {
	parts := []string{}
	for _, k := range []string{"model", "config", "workers", "workload"} {
		switch v := e[k].(type) {
		case string:
			parts = append(parts, v)
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	return strings.Join(parts, " ")
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
