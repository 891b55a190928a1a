package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// corpus is the cold-corpus input set: the entries, their models and
// the files the smv processes read.
type corpus struct {
	entries []entry
	models  map[string]*model
	files   map[string]string
	// oracleStates is the explicit oracle's reachable count per model it
	// could enumerate.
	oracleStates map[string]int
}

// prepareCorpus generates the corpus inputs into a fresh directory and
// cross-checks the verdict table against the explicit oracle.
func prepareCorpus(e *env) (*corpus, error) {
	dir, err := e.scratch("cold-corpus")
	if err != nil {
		return nil, err
	}
	c := &corpus{entries: coldCorpus(), models: map[string]*model{},
		files: map[string]string{}, oracleStates: map[string]int{}}
	for _, en := range c.entries {
		if c.models[en.model] != nil {
			continue
		}
		m, err := loadModel(e.root, en.model)
		if err != nil {
			return nil, err
		}
		file := filepath.Join(dir, en.model+".smv")
		if err := os.WriteFile(file, []byte(m.src), 0o644); err != nil {
			return nil, err
		}
		c.models[en.model], c.files[en.model] = m, file
		n, err := oracleCheck(m)
		switch {
		case errors.Is(err, errOracleBounds):
		case err != nil:
			return nil, err
		default:
			c.oracleStates[en.model] = n
		}
	}
	return c, nil
}

// expectedReachable is the reachable count an entry must report: the
// hand-derived one, else the explicit oracle's, else 0 (not checked).
func (c *corpus) expectedReachable(name string) float64 {
	if r := c.models[name].want.reachable; r != 0 {
		return r
	}
	return float64(c.oracleStates[name])
}

func coldEndToEnd(e *env) (*report, error) {
	rep := newReport()
	var c *corpus
	setup, err := timedSetup(func() (func(), error) {
		var err error
		c, err = prepareCorpus(e)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var passes []float64
	lats := make([][]float64, len(c.entries)) // per entry, one per pass
	var peakKB int64
	end := time.Now().Add(e.window)
	for len(passes) == 0 || time.Now().Before(end) {
		t0 := time.Now()
		for _, i := range rng.Perm(len(c.entries)) {
			o0 := time.Now()
			kb, err := runSmv(e, c, c.entries[i])
			lats[i] = append(lats[i], float64(time.Since(o0))/float64(time.Millisecond))
			peakKB = max(peakKB, kb)
			rep.op(err)
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	var total float64
	for _, p := range passes {
		total += p
	}
	// The latency percentiles are taken over the corpus entries, each at
	// its median over the passes: with one sample per entry and pass, the
	// plain p90 of all samples would be the slowest few runs of a single
	// entry (chase-32), a tail of a tail.
	meds := make([]float64, len(lats))
	for i, xs := range lats {
		meds[i] = median(xs)
	}
	rep.linef("cold-corpus: %d entries, %d passes, oracle cross-checked %d models", len(c.entries), len(passes), len(c.oracleStates))
	rep.values["setup_s"] = setup
	rep.values["check_s"] = median(passes)
	rep.values["latency_ms.p50"] = quantile(meds, 0.5)
	rep.values["latency_ms.p90"] = quantile(meds, 0.9)
	rep.values["throughput_qps"] = ratio(float64(len(c.entries)*len(passes)), total)
	rep.values["peak_rss_mb"] = float64(peakKB) / 1024
	rep.linef("latency samples: %d entries × %d passes", len(c.entries), len(passes))
	return rep, nil
}

// runSmv runs one fresh smv process on an entry, checks its output and
// returns the child's peak RSS in KiB.
func runSmv(e *env, c *corpus, en entry) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.smv, append(en.flags(), c.files[en.model])...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = childAttr()
	err := cmd.Run()
	var kb int64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			kb = ru.Maxrss
		}
	}
	if ctx.Err() != nil {
		return kb, fmt.Errorf("%s: missed the %v deadline", en, opDeadline)
	}
	// Exit status 1 means "some spec is false"; anything else is an error.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return kb, fmt.Errorf("%s: %v: %s", en, err, strings.TrimSpace(stderr.String()))
	}
	return kb, checkSmvOutput(c.models[en.model], c.expectedReachable(en.model), stdout.String())
}

// checkSmvOutput compares smv's report with the expected table: every
// spec reported once, in order, with the expected verdict, and every
// false one followed by its trace.
func checkSmvOutput(m *model, wantReach float64, out string) error {
	var ctlSeen, ltlSeen int
	reach := -1.0
	traceOpen := ""  // spec whose trace must follow
	traceStates := 0 // states printed since that spec's verdict
	closeTrace := func() error {
		if traceOpen != "" && traceStates == 0 {
			return fmt.Errorf("%s: spec %q is false but no trace was printed", m.name, traceOpen)
		}
		traceOpen = ""
		return nil
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "reachable states: "):
			f := strings.Fields(strings.TrimPrefix(line, "reachable states: "))
			if len(f) == 0 {
				return fmt.Errorf("%s: bad reachable line %q", m.name, line)
			}
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return fmt.Errorf("%s: bad reachable line %q", m.name, line)
			}
			reach = v
		case strings.HasPrefix(line, "-- specification "), strings.HasPrefix(line, "-- LTL specification "):
			if err := closeTrace(); err != nil {
				return err
			}
			isLTL := strings.HasPrefix(line, "-- LTL")
			body := strings.TrimPrefix(strings.TrimPrefix(line, "-- LTL specification "), "-- specification ")
			var spec string
			var holds bool
			switch {
			case strings.HasSuffix(body, " is true"):
				spec, holds = strings.TrimSuffix(body, " is true"), true
			case strings.HasSuffix(body, " is false"):
				spec = strings.TrimSuffix(body, " is false")
				traceOpen, traceStates = spec, 0
			default:
				return fmt.Errorf("%s: %s", m.name, line)
			}
			want := m.ctlSpecs
			idx := &ctlSeen
			if isLTL {
				want, idx = m.ltlSpecs, &ltlSeen
			}
			if *idx >= len(want) || normSpec(want[*idx]) != normSpec(spec) {
				return fmt.Errorf("%s: unexpected spec report %q", m.name, line)
			}
			*idx++
			if err := m.checkVerdict(isLTL, spec, holds); err != nil {
				return err
			}
		case strings.HasPrefix(line, "state ") && traceOpen != "":
			traceStates++
		}
	}
	if err := closeTrace(); err != nil {
		return err
	}
	if ctlSeen != len(m.ctlSpecs) || ltlSeen != len(m.ltlSpecs) {
		return fmt.Errorf("%s: %d of %d SPECs and %d of %d LTLSPECs reported",
			m.name, ctlSeen, len(m.ctlSpecs), ltlSeen, len(m.ltlSpecs))
	}
	if reach < 0 {
		return fmt.Errorf("%s: no reachable-state count printed", m.name)
	}
	if wantReach != 0 && reach != wantReach {
		return fmt.Errorf("%s: %.0f reachable states, expected %.0f", m.name, reach, wantReach)
	}
	return nil
}
