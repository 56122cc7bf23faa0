// Package scenario is the registry-driven experiment framework: every
// workload this repo can run — the paper's tables and figures, the
// streaming extension, the ablations, and any future scenario — is a
// Scenario registered under a stable id, returning structured Results
// that pluggable reporters render as paper-identical text tables, JSON,
// or CSV.
//
// Adding a workload is one Register call:
//
//	scenario.Register(scenario.New("myscenario", "what it shows",
//		scenario.Params{SweepIters: 600}, scenario.SweepIters|scenario.TimeoutS,
//		func(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
//			rep := sweep.RunGrid(ctx, backends, sizes, p.Guardrails(), runOnePoint)
//			...
//			return &scenario.Result{Scenario: "myscenario", Tables: ...,
//				Failures: scenario.FailuresFrom("myscenario", rep.Failures)}, nil
//		}))
//
// The cmd/experiments CLI and the pkg/simaibench library API both
// enumerate the same registry.
package scenario

import (
	"context"
	"fmt"
	"time"

	"simaibench/internal/sweep"
)

// Params are the shared runtime knobs every scenario understands. The
// zero value means "use this scenario's defaults"; a Scenario's
// Defaults() carries the paper's values. Each field is a row of the knob
// table (knobs.go), whose usage text is the CLI flag's; the comments
// below add only what that text does not say.
type Params struct {
	// TrainIters: real-mode validation training iterations (paper: 5000).
	TrainIters int `json:"train_iters,omitempty"`
	// SweepIters: simulated training iterations per sweep point.
	SweepIters int `json:"sweep_iters,omitempty"`
	// TimeScale: 0.01 compresses a 300-virtual-second real-mode run to ~3 s.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Transfers: write/read pairs per Fig-5 point (50).
	Transfers int `json:"transfers,omitempty"`
	// TimelineWindowS: emulated seconds of timeline rendered by Fig 2 (25).
	TimelineWindowS float64 `json:"timeline_window_s,omitempty"`
	// Tenants caps the scale-out family's tenant sweep 1, 2, 4, … (16).
	Tenants int `json:"tenants,omitempty"`
	// Clock: the simulated-scale scenarios ignore it (always DES time).
	Clock string `json:"clock,omitempty"`
	// MTBF narrows the resilience MTBF sweep to {healthy, MTBF} seconds.
	MTBF float64 `json:"mtbf_s,omitempty"`
	// CkptInterval narrows the resilience sweep to {fail-stop, CkptInterval} s.
	CkptInterval float64 `json:"ckpt_interval_s,omitempty"`
	// Rate narrows the campaign load sweep to one multiple of capacity.
	Rate float64 `json:"rate,omitempty"`
	// Policy narrows the campaign policy sweep to one policy id.
	Policy string `json:"policy,omitempty"`
	// Jobs sets the campaign family's open-loop jobs per sweep cell.
	Jobs int `json:"jobs,omitempty"`
	// TimeoutS is the per-sweep-cell wall-clock deadline (0 = none).
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// MaxEvents caps the DES events of each simulated cell (0 = unlimited).
	MaxEvents int64 `json:"max_events,omitempty"`
	// CollAlgo narrows the gradsync algorithm sweep; it is threaded into
	// costmodel.Params.CollAlgo, whose empty default prices the flat model.
	CollAlgo string `json:"coll_algo,omitempty"`
}

// Guardrails converts the params' per-cell guardrail knobs into the
// hardened sweep runner's options. (The event budget is not a sweep
// option: scenarios thread MaxEvents into each cell's des.Env guard.)
func (p Params) Guardrails() sweep.Options {
	return sweep.Options{Timeout: time.Duration(p.TimeoutS * float64(time.Second))}
}

// Scenario is one registered experiment: a named, self-describing
// workload with paper-default parameters, the knobs it reads and a
// context-cancellable run.
type Scenario struct {
	name, desc string
	defaults   Params
	reads      Knob
	run        RunFunc
}

// RunFunc is the body of a Scenario. It receives params with defaults
// already applied.
type RunFunc func(ctx context.Context, p Params) (*Result, error)

// New builds a Scenario from a name, description, paper-default params,
// the set of knobs its run reads and the run function. Defaults for a
// knob the scenario does not read panic: they could only split the
// result cache.
func New(name, desc string, defaults Params, reads Knob, run RunFunc) *Scenario {
	if extra := defaults.Knobs() &^ reads; extra != 0 {
		panic(fmt.Sprintf("scenario: %q defaults knobs it does not read: %v", name, extra.Keys()))
	}
	return &Scenario{name: name, desc: desc, defaults: defaults, reads: reads, run: run}
}

// Name is the stable id used by -exp and the library API.
func (s *Scenario) Name() string { return s.name }

// Description is the one-line summary shown by -list.
func (s *Scenario) Description() string { return s.desc }

// Defaults are the paper's parameter values for this scenario.
func (s *Scenario) Defaults() Params { return s.defaults }

// Reads is the set of knobs the scenario's run reads; a request that
// sets any other knob is refused by CheckReads.
func (s *Scenario) Reads() Knob { return s.reads }

// Run executes the scenario; zero fields of p fall back to Defaults. It
// neither refuses nor drops a knob the scenario does not read: the
// edges that take requests check them with CheckReads.
func (s *Scenario) Run(ctx context.Context, p Params) (*Result, error) {
	return s.run(ctx, p.merge(s.defaults))
}

// Result is the structured outcome of one scenario run: one or more
// tables of named-column records. The same Result feeds the text, JSON
// and CSV reporters, so machine-readable artifacts come from the exact
// path that produces the paper tables.
type Result struct {
	Scenario string  `json:"scenario"`
	Params   Params  `json:"params"`
	Tables   []Table `json:"tables"`
	// Failures lists sweep cells that failed under the run guardrails —
	// panics, budget trips, timeouts — while the rest of the sweep
	// completed. Empty on healthy runs (and omitted from JSON), so
	// healthy output is byte-identical with guardrails on.
	Failures []CellFailure `json:"failures,omitempty"`
}

// CellFailure records one failed sweep cell of a scenario run, in the
// reporters' render path so failed cells are explicit in text, JSON and
// CSV output instead of silently missing rows.
type CellFailure struct {
	// Sweep labels which of the scenario's sweeps the cell belongs to
	// (e.g. "fig3/512", "scale-out/redis").
	Sweep string `json:"sweep"`
	// Cell is the cell's index in the sweep's enumeration order.
	Cell int `json:"cell"`
	// Error is the structured cell failure rendered as text.
	Error string `json:"error"`
	// Err is the typed failure Error was rendered from, for consumers
	// that classify with errors.As/Is (serve's failure_kinds). It never
	// reaches a report or a response body, and is nil on a record that
	// was decoded from one.
	Err error `json:"-"`
}

// FailuresFrom converts the hardened sweep runner's cell errors into
// scenario failure records under one sweep label.
func FailuresFrom(sweepLabel string, errs []*sweep.CellError) []CellFailure {
	out := make([]CellFailure, 0, len(errs))
	for _, ce := range errs {
		out = append(out, CellFailure{Sweep: sweepLabel, Cell: ce.Index, Error: ce.Err.Error(), Err: ce.Err})
	}
	return out
}

// Table is one rendered artifact: either a column-formatted table
// (Columns + Cells) or a freeform text block (Text, e.g. the Fig 2 ASCII
// timelines).
type Table struct {
	// Title is printed verbatim above the table.
	Title string
	// Columns describe the cells of each row; nil for freeform tables.
	Columns []Column
	// Cells hold the rows flat, one cell per column in column order: row
	// i is Cells[i*len(Columns) : (i+1)*len(Columns)]. Its length is a
	// multiple of len(Columns): build it only with AddRow (or
	// UnmarshalJSON), since the reporters index it by that stride.
	Cells []Cell
	// Text is the freeform body when Columns is nil; must end with "\n".
	Text string
}

// NewTable returns a column-formatted table with room for rows rows, so
// that a producer which knows its row count allocates the cells once.
func NewTable(title string, rows int, columns []Column) Table {
	return Table{Title: title, Columns: columns, Cells: make([]Cell, 0, rows*len(columns))}
}

// AddRow appends one row. It panics unless there is one cell per column,
// as an index out of range would: a row cannot be ragged.
func (t *Table) AddRow(cells ...Cell) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("scenario: %d cells for the %d columns of table %q", len(cells), len(t.Columns), t.Title))
	}
	t.Cells = append(t.Cells, cells...)
}

// A Cell is one table value: a string, a float64 or an integer (for the
// %d columns). S, F and I build one.
type Cell struct {
	kind byte // 's', 'f' or 'd': the fmt verb its value prints under
	s    string
	f    float64
	n    int
}

// S is a string cell.
func S(s string) Cell { return Cell{kind: 's', s: s} }

// F is a float64 cell.
func F(f float64) Cell { return Cell{kind: 'f', f: f} }

// I is an integer cell.
func I(n int) Cell { return Cell{kind: 'd', n: n} }

// Value is the Go value the cell holds: a string, a float64 or an int.
// The text and CSV reporters hand it to their fmt verbs.
func (c Cell) Value() any {
	switch c.kind {
	case 's':
		return c.s
	case 'd':
		return c.n
	}
	return c.f
}

// Column is one table column: a machine-readable key for JSON/CSV plus
// the header label and fmt verbs that pin the text rendering to the
// paper tables' exact layout.
type Column struct {
	// Key names the value in JSON and CSV records (snake_case).
	Key string
	// Head is the text-mode header label, e.g. "write(GB/s)".
	Head string
	// HeadFmt formats Head in the header line, e.g. "%10s".
	HeadFmt string
	// CellFmt formats the cell value in a row, e.g. "%10.2f".
	CellFmt string
}
