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
//		scenario.Params{SweepIters: 600},
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
	"math"
	"time"

	"simaibench/internal/sweep"
)

// Params are the shared runtime knobs every scenario understands. The
// zero value means "use this scenario's defaults"; a Scenario's
// Defaults() carries the paper's values.
type Params struct {
	// TrainIters: real-mode validation training iterations (paper: 5000).
	TrainIters int `json:"train_iters,omitempty"`
	// SweepIters: simulated training iterations per sweep point (600
	// preserves the steady-state statistics of the paper's >=2500).
	SweepIters int `json:"sweep_iters,omitempty"`
	// TimeScale: wall-clock compression for real-mode runs (paper runs in
	// real time; 0.01 compresses a 300-virtual-second run to ~3 s).
	TimeScale float64 `json:"time_scale,omitempty"`
	// Transfers: write/read pairs per Fig-5 point (50).
	Transfers int `json:"transfers,omitempty"`
	// TimelineWindowS: emulated seconds of timeline rendered by Fig 2 (25).
	TimelineWindowS float64 `json:"timeline_window_s,omitempty"`
	// Tenants caps the co-scheduled workflow count of the multi-tenant
	// scale-out family: the tenant sweep doubles 1, 2, 4, … up to this
	// value (16).
	Tenants int `json:"tenants,omitempty"`
	// Clock selects the emulation time domain of the real-mode
	// scenarios (table2/table3/fig2, streaming): "virtual" (their
	// default) pads on a deterministic virtual clock and runs at DES
	// speed; "wall" keeps the genuine wall-clock emulation. The
	// simulated-scale scenarios always run on DES virtual time and
	// ignore this.
	Clock string `json:"clock,omitempty"`
	// MTBF narrows the resilience family's per-node mean-time-between-
	// failures sweep to {healthy, MTBF} seconds (0 = the scenario's full
	// default grid).
	MTBF float64 `json:"mtbf_s,omitempty"`
	// CkptInterval narrows the resilience family's checkpoint-cadence
	// sweep to {fail-stop, CkptInterval} seconds (0 = the full default
	// grid).
	CkptInterval float64 `json:"ckpt_interval_s,omitempty"`
	// Rate narrows the campaign family's offered-load sweep to the
	// single multiple of facility capacity (0 = the full default grid,
	// e.g. 1.2 = 20% overload).
	Rate float64 `json:"rate,omitempty"`
	// Policy narrows the campaign family's scheduling-policy sweep to
	// one policy id (empty = all built-in policies).
	Policy string `json:"policy,omitempty"`
	// Jobs sets the campaign family's open-loop job count per sweep
	// cell (0 = the scenario default).
	Jobs int `json:"jobs,omitempty"`
	// TimeoutS is the per-sweep-cell wall-clock deadline in seconds
	// (0 = none): a cell that hangs — e.g. on a mis-joined virtual-clock
	// barrier — is abandoned with a structured failure instead of
	// wedging the whole run.
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// MaxEvents caps the DES events each simulated sweep cell may
	// execute (0 = unlimited); a runaway cell aborts with a structured
	// budget error instead of looping forever.
	MaxEvents int64 `json:"max_events,omitempty"`
	// Workers is consumed by gradsync alone: each of its cells is one
	// logical process per dragonfly group, sharing nothing, advanced by
	// up to that many cores (des.LPSet; 0 or 1 = one core). Every other
	// scenario runs a cell on one sequential Env and ignores it. Metrics
	// are bit-identical for every value — Workers only trades wall-clock.
	Workers int `json:"workers,omitempty"`
	// CollAlgo narrows the gradsync family's collective-algorithm sweep
	// to one algorithm: "flat", "ring", "tree" or "hier" (empty = the
	// full algorithm axis; other scenarios ignore it). Threaded into
	// costmodel.Params.CollAlgo, whose empty default prices collectives
	// as the legacy flat rendezvous.
	CollAlgo string `json:"coll_algo,omitempty"`
}

// Guardrails converts the params' per-cell guardrail knobs into the
// hardened sweep runner's options. (The event budget is not a sweep
// option: scenarios thread MaxEvents into each cell's des.Env guard.)
func (p Params) Guardrails() sweep.Options {
	return sweep.Options{Timeout: time.Duration(p.TimeoutS * float64(time.Second))}
}

// Validate rejects a negative or non-finite numeric knob, naming its JSON
// key. Zero means "the scenario's default", and the harnesses read a
// negative value as unset too: accepting one would run — and cache — the
// default grid under a knob that says otherwise. The CLI and the server
// call it before running or keying anything.
func (p Params) Validate() error {
	for _, k := range []struct {
		key string
		v   float64
	}{
		{"train_iters", float64(p.TrainIters)}, {"sweep_iters", float64(p.SweepIters)},
		{"time_scale", p.TimeScale}, {"transfers", float64(p.Transfers)},
		{"timeline_window_s", p.TimelineWindowS}, {"tenants", float64(p.Tenants)},
		{"mtbf_s", p.MTBF}, {"ckpt_interval_s", p.CkptInterval}, {"rate", p.Rate},
		{"jobs", float64(p.Jobs)}, {"timeout_s", p.TimeoutS},
		{"max_events", float64(p.MaxEvents)}, {"workers", float64(p.Workers)},
	} {
		if !(k.v >= 0) || math.IsInf(k.v, 1) {
			return fmt.Errorf("params: %q is %v: must be finite and not negative", k.key, k.v)
		}
	}
	return nil
}

// merge fills zero fields of p from d.
func (p Params) merge(d Params) Params {
	if p.TrainIters == 0 {
		p.TrainIters = d.TrainIters
	}
	if p.SweepIters == 0 {
		p.SweepIters = d.SweepIters
	}
	if p.TimeScale == 0 {
		p.TimeScale = d.TimeScale
	}
	if p.Transfers == 0 {
		p.Transfers = d.Transfers
	}
	if p.TimelineWindowS == 0 {
		p.TimelineWindowS = d.TimelineWindowS
	}
	if p.Tenants == 0 {
		p.Tenants = d.Tenants
	}
	if p.Clock == "" {
		p.Clock = d.Clock
	}
	if p.MTBF == 0 {
		p.MTBF = d.MTBF
	}
	if p.CkptInterval == 0 {
		p.CkptInterval = d.CkptInterval
	}
	if p.Rate == 0 {
		p.Rate = d.Rate
	}
	if p.Policy == "" {
		p.Policy = d.Policy
	}
	if p.Jobs == 0 {
		p.Jobs = d.Jobs
	}
	if p.TimeoutS == 0 {
		p.TimeoutS = d.TimeoutS
	}
	if p.MaxEvents == 0 {
		p.MaxEvents = d.MaxEvents
	}
	if p.Workers == 0 {
		p.Workers = d.Workers
	}
	if p.CollAlgo == "" {
		p.CollAlgo = d.CollAlgo
	}
	return p
}

// Scenario is one registered experiment: a named, self-describing
// workload with paper-default parameters and a context-cancellable run.
type Scenario interface {
	// Name is the stable id used by -exp and the library API.
	Name() string
	// Description is the one-line summary shown by -list.
	Description() string
	// Defaults are the paper's parameter values for this scenario.
	Defaults() Params
	// Run executes the scenario; zero fields of p fall back to Defaults.
	Run(ctx context.Context, p Params) (*Result, error)
}

// RunFunc is the body of a func-backed Scenario. It receives params with
// defaults already applied.
type RunFunc func(ctx context.Context, p Params) (*Result, error)

// funcScenario adapts a RunFunc to the Scenario interface.
type funcScenario struct {
	name, desc string
	defaults   Params
	run        RunFunc
}

// New builds a Scenario from a name, description, paper-default params
// and a run function.
func New(name, desc string, defaults Params, run RunFunc) Scenario {
	return &funcScenario{name: name, desc: desc, defaults: defaults, run: run}
}

func (s *funcScenario) Name() string        { return s.name }
func (s *funcScenario) Description() string { return s.desc }
func (s *funcScenario) Defaults() Params    { return s.defaults }

func (s *funcScenario) Run(ctx context.Context, p Params) (*Result, error) {
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
// (Columns + Rows) or a freeform text block (Text, e.g. the Fig 2 ASCII
// timelines).
type Table struct {
	// Title is printed verbatim above the table.
	Title string
	// Columns describe the cells of each row; nil for freeform tables.
	Columns []Column
	// Rows hold one value per column, in column order.
	Rows [][]any
	// Text is the freeform body when Columns is nil; must end with "\n".
	Text string
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
