package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark traces itself from outside: it records a span around
// each of its own calls into a layer (workload → pass|window →
// scenario.Run:<name> → scenario.Report:<fmt>, one span per harness
// call, one per sampled request) and counter readings at the same
// boundaries. Spans stay in memory and are written as Chrome-trace JSON
// when the run ends. Spans inside the program are a later change.

// span is one timed interval. Parent indexes the causing span (-1 for
// the root); ID is the pass, window or request the span belongs to.
// Lane 0 holds the sequential call tree; request spans of client c sit
// on lane c+1 because they overlap in time.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	ID         int
	Lane       int
}

// counterSample is one reading of a named counter at a span boundary.
type counterSample struct {
	Name  string
	At    time.Duration
	Value float64
}

// recorder collects spans. A nil *recorder is tracing switched off:
// every method is a no-op, so call sites need no branches.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span
	counters []counterSample
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (r *recorder) begin(name string, parent, id, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), End: -1, Parent: parent, ID: id, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = time.Since(r.origin)
	r.mu.Unlock()
}

// add records an already-timed span (request spans are timed by the
// load generator itself).
func (r *recorder) add(name string, start, end time.Time, parent, id, lane int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin), Parent: parent, ID: id, Lane: lane})
	r.mu.Unlock()
}

func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, counterSample{name, time.Since(r.origin), v})
	r.mu.Unlock()
}

// durations returns the durations of every closed span called name.
func (r *recorder) durations(name string) []float64 {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, (s.End - s.Start).Seconds())
		}
	}
	return ds
}

// writeChrome writes the spans and counters in Chrome trace-event
// format (open in https://ui.perfetto.dev or chrome://tracing).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(r.spans)+len(r.counters))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Lane, Args: map[string]any{"span": i, "parent": s.Parent, "id": s.ID}})
	}
	for _, c := range r.counters {
		events = append(events, event{Name: c.Name, Ph: "C", Ts: us(c.At), Pid: 1,
			Args: map[string]any{"value": c.Value}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// whereTimeGoes prints the self time of every lane-0 span name — a
// span's duration minus the part its direct children cover — as a share
// of the root span. The self times of a sequential call tree sum to the
// root's duration, so the table accounts for the whole traced phase.
func (r *recorder) whereTimeGoes(w io.Writer, root int) {
	childSum := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Lane == 0 && s.Parent >= 0 && s.End >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	type row struct {
		name  string
		n     int
		self  time.Duration
		total time.Duration
	}
	byName := map[string]*row{}
	var sum time.Duration
	for i, s := range r.spans {
		if s.Lane != 0 || s.End < 0 {
			continue
		}
		rw := byName[s.Name]
		if rw == nil {
			rw = &row{name: s.Name}
			byName[s.Name] = rw
		}
		self := s.End - s.Start - childSum[i]
		rw.n++
		rw.self += self
		rw.total += s.End - s.Start
		sum += self
	}
	rows := make([]*row, 0, len(byName))
	for _, rw := range byName {
		rows = append(rows, rw)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	rootDur := r.spans[root].End - r.spans[root].Start
	fmt.Fprintf(w, "where the time goes (traced phase %.3f s; self = span - direct children)\n", rootDur.Seconds())
	fmt.Fprintf(w, "  %-34s %6s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "share")
	for _, rw := range rows {
		fmt.Fprintf(w, "  %-34s %6d %12.3f %12.3f %6.1f%%\n", rw.name, rw.n,
			rw.total.Seconds()*1e3, rw.self.Seconds()*1e3, 100*float64(rw.self)/float64(rootDur))
	}
	fmt.Fprintf(w, "  %-34s %6s %12s %12.3f %6.1f%%\n", "sum of self times", "", "", sum.Seconds()*1e3,
		100*float64(sum)/float64(rootDur))
}
