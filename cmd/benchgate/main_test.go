package main

import (
	"fmt"
	"testing"
)

func TestKeyIgnoresMeasurements(t *testing.T) {
	a := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0,
		"peak_live_nodes": 1871.0, "wall_ms": 4.2,
		"note": "compile re-runs on restart"}
	b := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0,
		"peak_live_nodes": 99999.0, "wall_ms": 0.1,
		"note": "something else entirely"}
	if key(a) != key(b) {
		t.Fatalf("measurement fields leaked into identity:\n%s\n%s", key(a), key(b))
	}
}

func TestKeyIgnoresHost(t *testing.T) {
	a := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0,
		"host": map[string]any{"cpu": "Xeon", "num_cpu": 2.0, "gomaxprocs": 2.0, "go": "go1.24.0"}}
	b := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0,
		"host": map[string]any{"cpu": "EPYC", "num_cpu": 64.0, "gomaxprocs": 1.0, "go": "go1.25.1"}}
	c := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0, "host": "linux/arm64"}
	if key(a) != key(b) || key(a) != key(c) {
		t.Fatalf("host leaked into identity:\n%s\n%s\n%s", key(a), key(b), key(c))
	}
}

func TestKeyDistinguishesParameters(t *testing.T) {
	base := entry{"model": "ring.smv", "config": "disjunctive", "workers": 2.0, "workload": "reachable"}
	for name, other := range map[string]entry{
		"workers":  {"model": "ring.smv", "config": "disjunctive", "workers": 4.0, "workload": "reachable"},
		"config":   {"model": "ring.smv", "config": "partitioned", "workers": 2.0, "workload": "reachable"},
		"model":    {"model": "mutex.smv", "config": "disjunctive", "workers": 2.0, "workload": "reachable"},
		"workload": {"model": "ring.smv", "config": "disjunctive", "workers": 2.0, "workload": "bfs-10"},
		"bool":     {"model": "ring.smv", "config": "disjunctive", "workers": 2.0, "workload": "reachable", "aborted": true},
	} {
		if key(base) == key(other) {
			t.Errorf("%s: identity collision: %s", name, key(base))
		}
	}
}

func TestDescribeSkipsMissingFields(t *testing.T) {
	got := describe(entry{"model": "dining.smv", "config": "monolithic", "workers": 1.0})
	want := "dining.smv monolithic workers=1"
	if got != want {
		t.Fatalf("describe = %q, want %q", got, want)
	}
}

func index(es ...entry) map[string]entry {
	out := make(map[string]entry, len(es))
	for _, e := range es {
		out[key(e)] = e
	}
	return out
}

func row(group, metric string, v float64) entry {
	return entry{"group": group, "model": "scaled-arbiter-k4", "config": "partitioned+sift",
		"workers": 1.0, "workload": "bfs-10", metric: v}
}

func TestGateTimeMetricWithinThreshold(t *testing.T) {
	base := []entry{row("sift", "reorder_ms", 100)}
	if n := gate(base, index(row("sift", "reorder_ms", 190))); n != 0 {
		t.Fatalf("1.9x on a 2x band failed the gate (%d failures)", n)
	}
}

func TestGateTimeMetricRegression(t *testing.T) {
	base := []entry{row("sift", "reorder_ms", 100)}
	if n := gate(base, index(row("sift", "reorder_ms", 201))); n != 1 {
		t.Fatalf("2.01x on a 2x band passed the gate (%d failures)", n)
	}
}

func TestGateTimeMetricFloorSkipsNoise(t *testing.T) {
	// A 1ms baseline that jumps to 50ms is scheduler noise, not signal:
	// the floor must keep it out of the gate.
	base := []entry{row("sift", "reorder_ms", 1)}
	if n := gate(base, index(row("sift", "reorder_ms", 50))); n != 0 {
		t.Fatalf("sub-floor baseline was gated (%d failures)", n)
	}
}

func TestGateMissingEntryStillFails(t *testing.T) {
	base := []entry{row("sift", "reorder_ms", 100)}
	if n := gate(base, index()); n != 1 {
		t.Fatalf("dropped row passed the gate (%d failures)", n)
	}
}

// TestEveryBandFires: each band of the table passes a move inside it
// and fails a synthetic regression just past it.
func TestEveryBandFires(t *testing.T) {
	for group, bs := range bands {
		for _, b := range bs {
			name := fmt.Sprintf("%s/%s", group, b.metric)
			base := 100.0
			inside, past := base*(1+0.9*b.pct/100), base*(1+1.1*b.pct/100)
			if b.higher {
				inside, past = base*(1-0.9*b.pct/100), base*(1-1.1*b.pct/100)
			}
			baseline := []entry{row(group, b.metric, base)}
			if n := gate(baseline, index(row(group, b.metric, inside))); n != 0 {
				t.Errorf("%s: %v -> %v inside the %.0f%% band failed", name, base, inside, b.pct)
			}
			if n := gate(baseline, index(row(group, b.metric, past))); n != 1 {
				t.Errorf("%s: %v -> %v past the %.0f%% band passed", name, base, past, b.pct)
			}
		}
	}
}

func TestUnknownGroupFails(t *testing.T) {
	base := []entry{row("no-such-group", "peak_live_nodes", 100)}
	if n := gate(base, index(base[0])); n != 1 {
		t.Fatalf("a row without bands passed the gate (%d failures)", n)
	}
}

func TestFlippedVerdictIsMissing(t *testing.T) {
	spec := func(holds bool) entry {
		return entry{"group": "wall", "model": "hanoi.smv", "config": "partitioned+sift", "workers": 1.0,
			"workload": "ctl EF goal", "holds": holds, "peak_live_nodes": 3666.0}
	}
	if n := gate([]entry{spec(true)}, index(spec(false))); n != 1 {
		t.Fatalf("a flipped verdict passed the gate (%d failures)", n)
	}
	if n := gate([]entry{spec(true)}, index(spec(true))); n != 0 {
		t.Fatalf("an unchanged verdict failed the gate (%d failures)", n)
	}
}
