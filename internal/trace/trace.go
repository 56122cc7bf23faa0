// Package trace records execution timelines of workflow components —
// compute spans, data-transfer marks and initialization periods — and
// renders them as the Fig-2-style timeline comparison (ASCII art in a
// terminal, CSV for plotting). Each component gets one lane; events carry
// a kind so the renderer can distinguish computation from transfers.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a span.
type Kind int

// Span kinds, mirroring the Fig 2 legend: compute (blue/orange regions),
// transfer (red bars), init (gray areas).
const (
	KindCompute Kind = iota
	KindTransfer
	KindInit
)

// String returns the kind label used in CSV output.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindTransfer:
		return "transfer"
	case KindInit:
		return "init"
	}
	return "unknown"
}

// Span is one timeline interval on a component lane.
type Span struct {
	Lane  string // component name, e.g. "Simulation", "Training"
	Kind  Kind
	Start float64 // seconds
	End   float64 // seconds
	Label string  // optional annotation, e.g. "write key=step100"
}

// Timeline collects spans from concurrently-running components.
type Timeline struct {
	mu    sync.Mutex
	spans []Span
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// Add records one span. Safe for concurrent use.
func (tl *Timeline) Add(s Span) {
	tl.mu.Lock()
	tl.spans = append(tl.spans, s)
	tl.mu.Unlock()
}

// AddSpan is a convenience wrapper.
func (tl *Timeline) AddSpan(lane string, kind Kind, start, end float64, label string) {
	tl.Add(Span{Lane: lane, Kind: kind, Start: start, End: end, Label: label})
}

// Spans returns a copy of all recorded spans sorted by start time.
func (tl *Timeline) Spans() []Span {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	cp := append([]Span(nil), tl.spans...)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Start != cp[j].Start {
			return cp[i].Start < cp[j].Start
		}
		return cp[i].Lane < cp[j].Lane
	})
	return cp
}

// Lanes returns the distinct lane names ordered by (earliest span
// start, name). Insertion order would depend on how concurrently-
// running components interleave their Add calls — two components whose
// first spans share a start time (both initializing at t=0) would swap
// lanes from run to run — so the order is derived from the recorded
// times instead, with the name as a deterministic tie-break.
func (tl *Timeline) Lanes() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	first := map[string]float64{}
	var lanes []string
	for _, s := range tl.spans {
		if t, ok := first[s.Lane]; !ok || s.Start < t {
			if !ok {
				lanes = append(lanes, s.Lane)
			}
			first[s.Lane] = s.Start
		}
	}
	sort.Slice(lanes, func(i, j int) bool {
		if first[lanes[i]] != first[lanes[j]] {
			return first[lanes[i]] < first[lanes[j]]
		}
		return lanes[i] < lanes[j]
	})
	return lanes
}

// WriteCSV emits "lane,kind,start,end,label" rows for external plotting.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "lane,kind,start,end,label"); err != nil {
		return err
	}
	for _, s := range tl.Spans() {
		if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%.6f,%s\n",
			s.Lane, s.Kind, s.Start, s.End, strings.ReplaceAll(s.Label, ",", ";")); err != nil {
			return err
		}
	}
	return nil
}

// Render draws an ASCII timeline of the window [from, to) with the given
// width in characters, one row per lane. Compute spans render as '█',
// transfers as '|', init as '░', idle as spaces — the textual equivalent
// of Fig 2.
func (tl *Timeline) Render(w io.Writer, from, to float64, width int) error {
	if width < 10 {
		width = 10
	}
	if to <= from {
		return fmt.Errorf("trace: empty window [%v,%v)", from, to)
	}
	scale := float64(width) / (to - from)
	lanes := tl.Lanes()
	spans := tl.Spans()
	maxName := 0
	for _, l := range lanes {
		if len(l) > maxName {
			maxName = len(l)
		}
	}
	for _, lane := range lanes {
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		paint := func(s Span, glyph rune, minCells int) {
			lo := int(math.Floor((s.Start - from) * scale))
			hi := int(math.Ceil((s.End - from) * scale))
			if hi <= lo {
				hi = lo + minCells
			}
			for i := lo; i < hi && i < width; i++ {
				if i >= 0 {
					row[i] = glyph
				}
			}
		}
		// Paint compute and init first, transfers on top so short
		// transfers stay visible (they are the red bars of Fig 2).
		for _, s := range spans {
			if s.Lane != lane || s.End < from || s.Start > to {
				continue
			}
			switch s.Kind {
			case KindInit:
				paint(s, '░', 1)
			case KindCompute:
				paint(s, '█', 1)
			}
		}
		for _, s := range spans {
			if s.Lane != lane || s.End < from || s.Start > to || s.Kind != KindTransfer {
				continue
			}
			paint(s, '|', 1)
		}
		if _, err := fmt.Fprintf(w, "%-*s %s\n", maxName, lane, string(row)); err != nil {
			return err
		}
	}
	// Time axis.
	axis := fmt.Sprintf("%-*s %-*.1f%*.1f", maxName, "t(s)", width/2, from, width-width/2, to)
	_, err := fmt.Fprintln(w, axis)
	return err
}
