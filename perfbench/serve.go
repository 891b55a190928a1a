package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/smvd"
)

// server is one smvd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the child has been waited for
	log    bytes.Buffer  // the child's output, for error reports
	rssKB  int64
}

// startServer launches smvd on a free loopback port and waits until it
// answers /healthz. The port is free when picked but may be taken before
// smvd binds it, so a server that exits at start is tried again.
func startServer(e *env, args ...string) (*server, error) {
	var err error
	for try := 0; try < 3; try++ {
		var s *server
		if s, err = startServerOnce(e, args...); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func startServerOnce(e *env, args ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		// The load comes from at most two connections.
		client: &http.Client{Timeout: opDeadline, Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	s.cmd = exec.Command(e.smvd, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	s.cmd.SysProcAttr = childAttr()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.rssKB = ru.Maxrss
		}
		close(s.exited)
	}()
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("smvd exited at start: %s", s.log.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("smvd did not come up on %s", addr)
		}
	}
}

// stop shuts the server down gracefully (SIGTERM flushes the warm
// records), waits for it and returns its peak RSS in KiB.
func (s *server) stop() (int64, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return 0, fmt.Errorf("smvd did not shut down")
	}
	if !s.cmd.ProcessState.Success() {
		return s.rssKB, fmt.Errorf("smvd: %v: %s", s.cmd.ProcessState, s.log.String())
	}
	return s.rssKB, nil
}

// kill ends the child at once and waits for it; safe after stop.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

func (s *server) statsz() (*smvd.StatszResponse, error) {
	resp, err := s.client.Get(s.base + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st smvd.StatszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &st, nil
}

// check sends one /check payload and decodes the reply.
func (s *server) check(payload []byte) (*smvd.CheckResponse, error) {
	resp, err := s.client.Post(s.base+"/check", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("smvd: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var out smvd.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /check reply: %w", err)
	}
	return &out, nil
}

// smvdLoad is one smvd workload: its session keys, their models and
// the server flags.
type smvdLoad struct {
	name      string
	keys      []sessionKey
	models    []*model
	args      []string
	editEvery int
	cacheDir  string
}

func newHotLoad(e *env) (*smvdLoad, error) {
	return newSmvdLoad(e, "smvd-hot", hotKeys, 0)
}

func newChurnLoad(e *env) (*smvdLoad, error) {
	l, err := newSmvdLoad(e, "smvd-churn", churnKeys, 10)
	if err != nil {
		return nil, err
	}
	l.cacheDir = filepath.Join(e.out, "run", "smvd-churn-records")
	l.args = []string{"-max-sessions", "2", "-cache-dir", l.cacheDir}
	return l, nil
}

func newSmvdLoad(e *env, name string, keys []sessionKey, editEvery int) (*smvdLoad, error) {
	l := &smvdLoad{name: name, keys: keys, editEvery: editEvery}
	for _, k := range keys {
		m, err := loadModel(e.root, k.model)
		if err != nil {
			return nil, err
		}
		l.models = append(l.models, m)
	}
	return l, nil
}

// request builds the smv -server payload of one request.
func (l *smvdLoad) request(seed int64, r request) smvd.CheckRequest {
	k, m := l.keys[r.key], l.models[r.key]
	req := smvd.CheckRequest{
		Model:  editedSource(m.src, seed, r.edit),
		Config: smvd.Config{Reorder: k.reorder},
		Specs:  m.ctlSpecs,
	}
	if k.ltl {
		req.LTL = m.ltlSpecs
	}
	return req
}

// checkResponse compares a reply with the expected table: every spec
// answered, with the expected verdict, and every failing one with a
// validated trace.
func checkResponse(m *model, req *smvd.CheckRequest, resp *smvd.CheckResponse) error {
	if len(resp.Verdicts) != len(req.Specs)+len(req.LTL) {
		return fmt.Errorf("%s: %d verdicts for %d specs", m.name, len(resp.Verdicts), len(req.Specs)+len(req.LTL))
	}
	for i, v := range resp.Verdicts {
		isLTL := i >= len(req.Specs)
		if v.Error != "" {
			return fmt.Errorf("%s: spec %q: %s", m.name, v.Spec, v.Error)
		}
		if err := m.checkVerdict(isLTL, v.Spec, v.Holds); err != nil {
			return err
		}
		if !v.Holds && (!v.Validated || v.Trace == "" || v.States == 0) {
			return fmt.Errorf("%s: spec %q is false without a validated trace", m.name, v.Spec)
		}
	}
	return nil
}

// serve starts a fresh server (and cache directory) and warms every
// session key with its first request.
func (l *smvdLoad) serve(e *env, rep *report) (*server, error) {
	if l.cacheDir != "" {
		if _, err := e.scratch(filepath.Base(l.cacheDir)); err != nil {
			return nil, err
		}
	}
	srv, err := startServer(e, l.args...)
	if err != nil {
		return nil, err
	}
	for i := range l.keys {
		req := l.request(e.seed, request{key: i})
		body, err := json.Marshal(&req)
		if err != nil {
			srv.kill()
			return nil, err
		}
		resp, err := srv.check(body)
		if err == nil {
			err = checkResponse(l.models[i], &req, resp)
		}
		rep.op(err)
	}
	return srv, nil
}

// sample is one timed request: client latency and response class.
type sample struct {
	ms    float64
	class string // "hot", "restore" or "cold"
	key   int
}

func classify(resp *smvd.CheckResponse) string {
	switch {
	case !resp.Warm:
		return "cold"
	case resp.WarmSource == "disk":
		return "restore"
	}
	return "hot"
}

// drive runs the closed-loop load: two clients take requests in
// sequence order, each sending its next one after the previous reply,
// until the window has passed. It returns the samples and the wall
// time from the window's start to the last reply.
func (l *smvdLoad) drive(e *env, srv *server, rep *report, window time.Duration) ([]sample, time.Duration) {
	seq := sequence(e.seed, len(l.keys), l.editEvery, 1<<16)
	var (
		mu      sync.Mutex
		next    int
		samples []sample
		last    time.Time
	)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Now().After(end) || next == len(seq) {
					mu.Unlock()
					return
				}
				r := seq[next]
				next++
				mu.Unlock()
				req := l.request(e.seed, r)
				body, err := json.Marshal(&req)
				if err != nil {
					panic(err) // plain strings and bools always marshal
				}
				t0 := time.Now()
				resp, err := srv.check(body)
				done := time.Now()
				if err == nil {
					err = checkResponse(l.models[r.key], &req, resp)
				}
				mu.Lock()
				rep.op(err)
				if err == nil {
					samples = append(samples, sample{ms: float64(done.Sub(t0)) / float64(time.Millisecond), class: classify(resp), key: r.key})
				}
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, last.Sub(start)
}

func latencies(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if class == "" || s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// endToEnd is the shared end-to-end run of the two smvd workloads.
func (l *smvdLoad) endToEnd(e *env) (*report, error) {
	rep := newReport()
	var srv *server
	setup, err := timedSetup(func() (func(), error) {
		var err error
		srv, err = l.serve(e, rep)
		return func() { srv.kill() }, err
	})
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	samples, elapsed := l.drive(e, srv, rep, e.window)
	kb, err := srv.stop()
	if err != nil {
		return nil, err
	}
	lats := latencies(samples, "")
	rep.values["setup_s"] = setup
	rep.values["check_s"] = ratio(elapsed.Seconds()*float64(len(l.keys)), float64(len(lats)))
	rep.values["latency_ms.p50"] = quantile(lats, 0.5)
	rep.values["latency_ms.p90"] = quantile(lats, 0.9)
	rep.values["throughput_qps"] = ratio(float64(len(lats)), elapsed.Seconds())
	rep.values["peak_rss_mb"] = float64(kb) / 1024
	rep.linef("%s: %d latency samples in %.2fs from 2 closed-loop clients", l.name, len(lats), elapsed.Seconds())
	for _, class := range []string{"hot", "restore", "cold"} {
		if xs := latencies(samples, class); len(xs) > 0 {
			rep.linef("  %-12s %5d requests  p50 %8.2f ms  p90 %8.2f ms", class, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
		}
	}
	for i, k := range l.keys {
		var xs []float64
		for _, s := range samples {
			if s.key == i {
				xs = append(xs, s.ms)
			}
		}
		rep.linef("  %-12s %5d requests  p50 %8.2f ms  p90 %8.2f ms", k.model, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	return rep, nil
}

func hotEndToEnd(e *env) (*report, error) {
	l, err := newHotLoad(e)
	if err != nil {
		return nil, err
	}
	return l.endToEnd(e)
}

func churnEndToEnd(e *env) (*report, error) {
	l, err := newChurnLoad(e)
	if err != nil {
		return nil, err
	}
	return l.endToEnd(e)
}

// serverLayers is the smvd part of a traced run: the same load against
// a real server, read through /statsz deltas over the timed window and
// split by response class.
func (l *smvdLoad) serverLayers(e *env, rep *report, window time.Duration) error {
	srv, err := l.serve(e, rep)
	if err != nil {
		return err
	}
	defer srv.kill()
	before, err := srv.statsz()
	if err != nil {
		return err
	}
	samples, _ := l.drive(e, srv, rep, window)
	after, err := srv.statsz()
	if err != nil {
		return err
	}
	if _, err := srv.stop(); err != nil {
		return err
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	rep.values["smvd.session_hit_rate"] = ratio(hits, hits+misses)
	rep.values["smvd.disk_warm_starts"] = float64(after.Cache.DiskWarmStarts - before.Cache.DiskWarmStarts)
	rep.values["smvd.evictions_lru"] = float64(after.Cache.EvictionsLRU - before.Cache.EvictionsLRU)
	rep.values["smvd.memo_hits"] = float64(memoHitsSince(before, after))
	rep.values["smvd.hot_ms.p50"] = quantile(latencies(samples, "hot"), 0.5)
	rep.values["smvd.restore_ms.p50"] = quantile(latencies(samples, "restore"), 0.5)
	rep.values["smvd.cold_ms.p50"] = quantile(latencies(samples, "cold"), 0.5)
	rep.linef("%s server phase: %d requests; hits %.0f, misses %.0f, disk warm starts %.0f, LRU evictions %.0f",
		l.name, len(samples), hits, misses, rep.values["smvd.disk_warm_starts"], rep.values["smvd.evictions_lru"])
	return nil
}

// memoHitsSince sums the subformula-memo hits the sessions listed at
// the second read gained since the first. A session evicted in between
// takes its count with it, so on smvd-churn this counts the hits of the
// sessions alive at the end of the window.
func memoHitsSince(before, after *smvd.StatszResponse) uint64 {
	old := map[string]uint64{}
	for _, s := range before.Sessions {
		old[s.Key] = s.MemoHits
	}
	var n uint64
	for _, s := range after.Sessions {
		n += s.MemoHits - min(old[s.Key], s.MemoHits)
	}
	return n
}
