package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a corpus
// entry or a request) share its id; parent indexes the enclosing span,
// -1 for an operation's root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

type openSpan struct {
	idx      int
	start    time.Time
	children time.Duration // time covered by direct children
}

// tracer records spans in memory while on; self time (a span's duration
// minus what its direct children cover) accumulates by span name into
// the current pass. Off, do only calls f.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []openSpan
	self  map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}}
}

// do runs f inside a span and returns the span's duration (0 when the
// tracer is off).
func (t *tracer) do(name string, f func()) time.Duration {
	if !t.on {
		f()
		return 0
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].idx
	}
	start := time.Now()
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: micros(start.Sub(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, openSpan{idx: idx, start: start})
	f()
	end := time.Now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := end.Sub(o.start)
	t.spans[idx].End = micros(end.Sub(t.t0))
	t.self[name] += d - o.children
	if n := len(t.open); n > 0 {
		t.open[n-1].children += d
	}
	return d
}

// takeSelf returns the self times accumulated since the last call.
func (t *tracer) takeSelf() map[string]time.Duration {
	s := t.self
	t.self = map[string]time.Duration{}
	return s
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
