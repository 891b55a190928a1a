package main

// The benchmark's self-test: each workload at minimal size (a one-second
// window), end to end and traced, asserting that every metric is
// printed with its unit, that no ratio exceeds 1 and that each workload
// still exercises the layer it was chosen for. Run it from perfbench/:
//
//	go test -count=1 .

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists every workload but the hand-run smvd-hot.
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q of BENCHMARK.json is unknown to perfbench", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if listed[name] == (name == handRun) {
			t.Errorf("workload %q: listed in BENCHMARK.json %v, want %v", name, listed[name], name != handRun)
		}
	}
	compare := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", endToEnd, bj.EndToEnd)
	compare("per_layer", perLayer, bj.PerLayer)
}

func TestSequenceIsSeededAndBalanced(t *testing.T) {
	a := sequence(7, 6, 10, 60)
	b := sequence(7, 6, 10, 60)
	c := sequence(8, 6, 10, 60)
	if !equalRequests(a, b) {
		t.Fatal("the same seed gave two sequences")
	}
	if equalRequests(a, c) {
		t.Fatal("two seeds gave the same sequence")
	}
	count := map[int]int{}
	edits := 0
	for i, r := range a {
		count[r.key]++
		if r.edit > 0 {
			edits++
		}
		if (i+1)%6 == 0 && len(count) != 6 {
			t.Fatalf("block ending at %d misses a key: %v", i, count)
		}
	}
	for k, n := range count {
		if n != 10 {
			t.Errorf("key %d drawn %d times in 60, want 10", k, n)
		}
	}
	if edits != 6 {
		t.Errorf("%d edits in 60 requests, want 6", edits)
	}
}

func equalRequests(a, b []request) bool {
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

func TestCheckSmvOutputRejectsBadReports(t *testing.T) {
	m := &model{name: "mutex", ctlSpecs: []string{"AG ! both", "AG EF p1 = critical"},
		want: shippedExpectations["mutex"]}
	good := "reachable states: 12 (in 3 frontier iterations)\n\n" +
		"-- specification AG ! both is false\n" +
		"-- as demonstrated by the following execution sequence:\n" +
		"state 0: p1=idle\nstate 1: p1=critical\n" +
		"-- specification AG EF p1 = critical is true\n"
	if err := checkSmvOutput(m, 12, good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := map[string]string{
		"wrong verdict":   strings.Replace(good, "critical is true", "critical is false", 1),
		"missing trace":   strings.Replace(good, "state 0: p1=idle\nstate 1: p1=critical\n", "", 1),
		"missing spec":    strings.Replace(good, "-- specification AG EF p1 = critical is true\n", "", 1),
		"wrong reachable": strings.Replace(good, "reachable states: 12", "reachable states: 13", 1),
		"spec error":      strings.Replace(good, "is true", "ERROR: boom", 1),
	}
	for name, out := range bad {
		if err := checkSmvOutput(m, 12, out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// selfTestEnv builds the binaries once into the checkout's build
// directory.
func selfTestEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	e := &env{root: "..", out: filepath.Join("..", ".bench_build", "selftest"), seed: 1, window: time.Second}
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	return e
}

// printed runs print and checks what it wrote: the metric lines and the
// final result object.
func printed(t *testing.T, e *env, rep *report, workload string, trace int, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf, e, workload, trace, defs)
	units := map[string]string{}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
			units[f[1]] = f[3]
		}
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s",
			workload, trace, res.Correct, res.Failed, res.Attempted, buf.String())
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s trace=%d: %d metrics in the result, want %d", workload, trace, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if units[d.name] != d.unit || res.Metrics[d.name].Unit != d.unit {
			t.Errorf("%s trace=%d: metric %s not printed with unit %s", workload, trace, d.name, d.unit)
		}
		if d.ratio && res.Metrics[d.name].Value > 1 {
			t.Errorf("%s trace=%d: ratio %s = %v", workload, trace, d.name, res.Metrics[d.name].Value)
		}
	}
	for _, d := range endToEnd {
		if trace == 0 && res.Metrics[d.name].Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, res.Metrics[d.name].Value)
		}
	}
}

func TestWorkloadsAtMinimalSize(t *testing.T) {
	e := selfTestEnv(t)
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := w.e2e(e)
			if err != nil {
				t.Fatal(err)
			}
			printed(t, e, rep, name, 0, endToEnd)
			rep, err = w.traced(e)
			if err != nil {
				t.Fatal(err)
			}
			v := rep.values
			printed(t, e, rep, name, 1, perLayer)
			switch name {
			case "smvd-hot":
				if v["kripke.image_calls"] != 0 || v["smvd.session_hit_rate"] != 1 {
					t.Errorf("smvd-hot: kripke.image_calls %v, smvd.session_hit_rate %v; want 0 and 1",
						v["kripke.image_calls"], v["smvd.session_hit_rate"])
				}
			case "smvd-churn":
				if v["smvd.disk_warm_starts"] <= 0 || v["smvd.evictions_lru"] <= 0 {
					t.Errorf("smvd-churn: smvd.disk_warm_starts %v, smvd.evictions_lru %v; want both > 0",
						v["smvd.disk_warm_starts"], v["smvd.evictions_lru"])
				}
			case "cold-corpus":
				if v["kripke.reach_ms"] <= 0 || v["ltl.check_ms"] <= 0 || v["bdd.sift_events"] <= 0 || v["kripke.disjunct_steps"] <= 0 {
					t.Errorf("cold-corpus: reachability, LTL, sifting or the disjunctive image did no work: %v %v %v %v",
						v["kripke.reach_ms"], v["ltl.check_ms"], v["bdd.sift_events"], v["kripke.disjunct_steps"])
				}
			}
		})
	}
}

// TestColdCountsRepeat asserts that the cold-corpus counts the benchmark
// treats as exact repeat across two traced passes of one process.
func TestColdCountsRepeat(t *testing.T) {
	e := selfTestEnv(t)
	r, err := coldReplay(e, newReport(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.passes) < 2 {
		t.Fatalf("%d traced passes, want 2", len(r.passes))
	}
	for _, name := range repeatCounts {
		a, b := r.passes[0].value(name), r.passes[1].value(name)
		if a == 0 || a != b {
			t.Errorf("%s: %v on the first traced pass, %v on the second", name, a, b)
		}
	}
}
