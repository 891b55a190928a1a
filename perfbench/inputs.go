package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/modelgen"
	"repro/internal/smv"
)

// A model of the benchmark: its name, SMV source, spec sources (in the
// order the checker reports them) and expected verdicts.
type model struct {
	name     string
	src      string
	ctlSpecs []string
	ltlSpecs []string
	want     expectation
}

// splitGenerated parses a generated model name such as "arbiter-12".
func splitGenerated(name string) (family string, n int, err error) {
	family, size, ok := strings.Cut(name, "-")
	if !ok {
		return "", 0, fmt.Errorf("unknown model %q", name)
	}
	n, err = strconv.Atoi(size)
	if err != nil {
		return "", 0, fmt.Errorf("unknown model %q", name)
	}
	return family, n, nil
}

// modelSource returns the SMV source of a shipped model (models/<name>.smv)
// or of a generated one ("arbiter-12", "chase-32", "hanoi-8"); the
// arbiter gets its ArbiterSpecs appended as SPEC sections.
func modelSource(root, name string) (string, error) {
	if !strings.Contains(name, "-") {
		b, err := os.ReadFile(filepath.Join(root, "models", name+".smv"))
		return string(b), err
	}
	family, n, err := splitGenerated(name)
	if err != nil {
		return "", err
	}
	switch family {
	case "arbiter":
		var b strings.Builder
		b.WriteString(modelgen.ArbiterSource(n))
		specs, _ := modelgen.ArbiterSpecs(n)
		for _, s := range specs {
			fmt.Fprintf(&b, "SPEC %s\n", s)
		}
		return b.String(), nil
	case "chase":
		return modelgen.ChaseSource(n), nil
	case "hanoi":
		return modelgen.HanoiSource(n), nil
	}
	return "", fmt.Errorf("unknown model %q", name)
}

// loadModel reads or generates a model and its expected verdicts.
func loadModel(root, name string) (*model, error) {
	src, err := modelSource(root, name)
	if err != nil {
		return nil, err
	}
	want, err := expectationFor(name)
	if err != nil {
		return nil, err
	}
	mod, err := smv.ParseModule(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m := &model{name: name, src: src, want: want}
	for _, sp := range mod.Specs {
		m.ctlSpecs = append(m.ctlSpecs, sp.Source)
	}
	for _, sp := range mod.LTLSpecs {
		m.ltlSpecs = append(m.ltlSpecs, sp.Source)
	}
	return m, nil
}

// checkVerdict compares one reported verdict with the table.
func (m *model) checkVerdict(ltl bool, spec string, holds bool) error {
	table := m.want.ctl
	if ltl {
		table = m.want.ltl
	}
	want, ok := lookup(table, spec)
	if !ok {
		return fmt.Errorf("%s: spec %q is not in the expected-verdict table", m.name, spec)
	}
	if want != holds {
		return fmt.Errorf("%s: spec %q reported %v, expected %v", m.name, spec, holds, want)
	}
	return nil
}

// shippedModels are the models/*.smv files the cold corpus checks.
var shippedModels = []string{
	"abp", "arbiter", "cache", "chase", "counter", "dining",
	"hanoi", "mutex", "peterson", "ring", "seitz", "semaphore",
}

// processModels declare processes, so -disjunctive changes their image.
var processModels = []string{"cache", "mutex", "peterson", "ring", "semaphore"}

// entry is one cold-corpus check: a model and the smv flags beyond
// -reachable. reorder and disjunctive mirror the flags for the
// in-process replay.
type entry struct {
	model       string
	reorder     bool
	disjunctive bool
}

func (e entry) flags() []string {
	f := []string{"-reachable"}
	if e.reorder {
		f = append(f, "-reorder")
	}
	if e.disjunctive {
		f = append(f, "-disjunctive")
	}
	return f
}

func (e entry) String() string {
	return strings.Join(append([]string{e.model}, e.flags()[1:]...), " ")
}

// coldCorpus lists the cold-corpus entries: every shipped model under
// the default configuration, the three scaled generators, hanoi-8 again
// under -reorder and the process models again under -disjunctive.
func coldCorpus() []entry {
	var out []entry
	for _, name := range shippedModels {
		out = append(out, entry{model: name})
	}
	out = append(out,
		entry{model: "arbiter-12"},
		entry{model: "chase-32"},
		entry{model: "hanoi-8"},
		entry{model: "hanoi-8", reorder: true},
	)
	for _, name := range processModels {
		out = append(out, entry{model: name, disjunctive: true})
	}
	return out
}

// sessionKey is one smvd session: a model under an engine config.
type sessionKey struct {
	model   string
	reorder bool
	ltl     bool // send the model's LTLSPECs too
}

// hotKeys span about two orders of magnitude of per-request cost, so
// the latency percentiles each fall inside one model's band.
var hotKeys = []sessionKey{
	{model: "arbiter-12", ltl: true},
	{model: "seitz", ltl: true},
	{model: "peterson", ltl: true},
	{model: "hanoi-8", ltl: true},
	{model: "chase-32", ltl: true},
}

// churnKeys outnumber the server's two session slots three to one;
// the three larger models sift.
var churnKeys = []sessionKey{
	{model: "seitz", reorder: true},
	{model: "arbiter-8"},
	{model: "hanoi-7", reorder: true},
	{model: "chase-16", reorder: true},
	{model: "cache"},
	{model: "peterson"},
}

// request is one entry of a seeded request sequence: a session key and,
// when edit > 0, a never-seen comment that gives the model a new content
// key (a fully cold check).
type request struct {
	key  int
	edit int
}

// sequence draws n requests from the seed. Keys come in shuffled blocks
// holding every key once, so each key is drawn with equal probability
// while the mix of a window does not depend on the draw; with
// editEvery > 0 one request in every editEvery, at a seeded position,
// carries a fresh edit.
func sequence(seed int64, nkeys, editEvery, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, 0, n)
	for len(out) < n {
		for _, k := range rng.Perm(nkeys) {
			out = append(out, request{key: k})
		}
	}
	out = out[:n]
	if editEvery > 0 {
		edits := 0
		for base := 0; base < n; base += editEvery {
			i := base + rng.Intn(editEvery)
			if i < n {
				edits++
				out[i].edit = edits
			}
		}
	}
	return out
}

// editedSource appends a seeded comment: the verdicts stay the same,
// the content key does not.
func editedSource(src string, seed int64, edit int) string {
	if edit == 0 {
		return src
	}
	return fmt.Sprintf("%s\n-- edit %d of seed %d\n", src, edit, seed)
}
