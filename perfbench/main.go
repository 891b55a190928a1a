// Command perfbench is the repository benchmark. It builds cmd/smv and
// cmd/smvd from the checkout it runs in, drives one workload against
// those binaries, checks every verdict against a hand-written table,
// and prints every metric by name with its unit; the last line of its
// output is one JSON object with the keys correct, attempted, failed
// and metrics. With --trace 1 it instead replays the workload
// in-process, with spans around each call into a layer, and prints the
// per-layer metrics. Run it from the repository root through the
// wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 55 --trace 0
//
// Workloads: cold-corpus, smvd-hot, smvd-churn (see README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is one benchmark run's configuration.
type env struct {
	root   string // repository checkout
	out    string // build and scratch directory inside the checkout
	smv    string // built binaries
	smvd   string
	seed   int64
	window time.Duration // the timed window, --seconds
}

// handRun is the workload BENCHMARK.json does not list: it is run by
// hand and by the self-test, so the listed two can run long enough to
// be steady within the benchmark's time budget (README.md).
const handRun = "smvd-hot"

var workloads = map[string]struct {
	e2e    func(*env) (*report, error)
	traced func(*env) (*report, error)
}{
	"cold-corpus": {coldEndToEnd, coldTraced},
	"smvd-hot":    {hotEndToEnd, hotTraced},
	"smvd-churn":  {churnEndToEnd, churnTraced},
}

func main() {
	workload := flag.String("workload", "", "cold-corpus, smvd-hot or smvd-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and request sequences")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced in-process run printing the per-layer metrics")
	root := flag.String("root", ".", "repository checkout to build and measure")
	out := flag.String("out", ".bench_build", "build and scratch directory")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-corpus|smvd-hot|smvd-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	e := &env{root: *root, out: *out, seed: *seed, window: time.Duration(*seconds) * time.Second}
	run, defs := w.e2e, endToEnd
	if *trace == 1 {
		run, defs = w.traced, perLayer
	}
	if err := e.build(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, e, *workload, *trace, defs)
}

// build compiles the two binaries of the commit under test.
func (e *env) build() error {
	bin := filepath.Join(e.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/smv", "./cmd/smvd")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/smv and cmd/smvd: %w", err)
	}
	e.smv, e.smvd = filepath.Join(abs, "smv"), filepath.Join(abs, "smvd")
	return nil
}

// scratch returns a fresh directory under the build directory.
func (e *env) scratch(name string) (string, error) {
	dir := filepath.Join(e.out, "run", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one the timed window uses.
const setupReps = 3

// timedSetup runs do setupReps times and returns the median duration.
// do returns a release function for what it set up; it is called for
// every set-up but the last, after that set-up has been timed.
func timedSetup(do func() (release func(), err error)) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		release, err := do()
		if err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		if i < setupReps-1 {
			release()
		}
	}
	return median(ts), nil
}

// childAttr makes a child process die with the benchmark, so a run
// that is killed leaves no smv or smvd behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// opDeadline bounds one smv process or one smvd request; a miss counts
// as a failed operation.
const opDeadline = 60 * time.Second

// report collects one run's operations, metric values and checks.
type report struct {
	attempted, failed int
	errors            []string // first few failures, for the log
	violations        []string // broken invariants (a ratio above 1, a layer not exercised)
	values            map[string]float64
	lines             []string // extra report lines printed before the metrics
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op records one attempted operation and, for a non-nil error, its
// failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errors) < 20 {
			r.errors = append(r.errors, err.Error())
		}
	}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// finish checks the ratio metrics and that every metric of defs is set.
func (r *report) finish(defs []metricDef) {
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			r.violate("metric %s was not measured", d.name)
		}
		if d.ratio && v > 1 {
			r.violate("ratio %s = %v is above 1", d.name, v)
		}
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.violations) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, as the last line, the
// result object.
func (r *report) print(w io.Writer, e *env, workload string, trace int, defs []metricDef) {
	r.finish(defs)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "host: %s\n", hostLine())
	fmt.Fprintf(bw, "run: workload=%s seed=%d seconds=%.0f trace=%d\n", workload, e.seed, e.window.Seconds(), trace)
	for _, l := range r.lines {
		fmt.Fprintln(bw, l)
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v := r.values[d.name]
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(bw, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(bw, "error_rate: %v (%d failed / %d attempted)\n",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, msg := range r.errors {
		fmt.Fprintf(bw, "error: %s\n", msg)
	}
	for _, msg := range r.violations {
		fmt.Fprintf(bw, "violation: %s\n", msg)
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics}
	b, err := json.Marshal(&res)
	if err != nil {
		panic(err) // a map of plain floats always marshals
	}
	fmt.Fprintf(bw, "%s\n", b)
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu)
}
