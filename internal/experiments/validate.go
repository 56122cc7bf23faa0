package experiments

import (
	"context"
	"fmt"
	"strings"

	"simaibench/internal/clock"
	"simaibench/internal/config"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/trace"
)

// ValidationMode selects which side of the Table 2/3 comparison to run.
type ValidationMode int

const (
	// Original emulates the production nekRS-ML workflow using the
	// iteration-time distributions measured from it (mean 0.0312 s, std
	// 0.0273 s simulation; 0.0611 s ± 0.1 training). The production run
	// itself is not available here (it needs Aurora + nekRS), so its
	// published statistics are the ground truth we sample from (the
	// "Original emulation" rows of EXPERIMENTS.md).
	Original ValidationMode = iota
	// MiniApp is the SimAI-Bench mini-app: fixed run_time per the
	// Listing 2 configuration.
	MiniApp
)

// String returns the mode label used in tables.
func (m ValidationMode) String() string {
	if m == Original {
		return "Original"
	}
	return "Mini-app"
}

// ValidationConfig drives one validation run (§4.1.1).
type ValidationConfig struct {
	Mode ValidationMode
	// TrainIters: training iterations before the trainer steers the
	// workflow to stop (5000 in the paper).
	TrainIters int
	// WritePeriod: solver iterations between snapshot writes (100).
	WritePeriod int
	// ReadPeriod: training iterations between data-loader polls (10).
	ReadPeriod int
	// PayloadBytes per staged array (1.2 MB per rank in the original).
	PayloadBytes int
	// TimeScale compresses every emulated duration so a 300-virtual-
	// second run completes in well under a wall second.
	TimeScale float64
	// Backend for staging (the original uses Redis via SmartSim; any
	// backend works since validation measures event structure).
	Backend datastore.Backend
	// SimInitS / TrainInitS: initialization times (gray areas of Fig 2).
	SimInitS   float64
	TrainInitS float64
	Seed       int64
	// Clock selects the emulation time domain: clock.KindVirtual (the
	// default) runs both components against one virtual clock — no real
	// sleeping, bit-deterministic per seed, DES-speed — while
	// clock.KindWall keeps the genuine-compute wall-clock emulation the
	// paper validates with.
	Clock string
}

func (c ValidationConfig) withDefaults() ValidationConfig {
	if c.TrainIters == 0 {
		c.TrainIters = 5000
	}
	if c.WritePeriod == 0 {
		c.WritePeriod = 100
	}
	if c.ReadPeriod == 0 {
		c.ReadPeriod = 10
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 1_200_000
	}
	if c.TimeScale == 0 {
		c.TimeScale = 0.002
	}
	if c.SimInitS == 0 {
		c.SimInitS = 2.0
	}
	if c.TrainInitS == 0 {
		c.TrainInitS = 5.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == "" {
		c.Clock = clock.KindVirtual
	}
	return c
}

// simConfig builds the solver component configuration for the mode.
// Both modes use a small kernel so real compute never exceeds the scaled
// iteration budget; the run_time distribution is what differs.
func (c ValidationConfig) simConfig() config.SimulationConfig {
	rt := config.DistSpec{Type: "fixed", Value: 0.03147}
	if c.Mode == Original {
		rt = config.DistSpec{Type: "lognormal", Mean: 0.0312, Std: 0.0273}
	}
	return config.SimulationConfig{Kernels: []config.KernelSpec{{
		Name:     "nekrs_iter",
		Kernel:   "AXPY",
		RunTime:  &rt,
		DataSize: []int{512},
		Device:   "xpu",
	}}}
}

// aiConfig builds the trainer configuration for the mode.
func (c ValidationConfig) aiConfig() config.AIConfig {
	rt := config.DistSpec{Type: "fixed", Value: 0.061}
	if c.Mode == Original {
		rt = config.DistSpec{Type: "lognormal", Mean: 0.0611, Std: 0.1}
	}
	return config.AIConfig{
		Layers:  []int{8, 16, 8},
		LR:      0.01,
		Batch:   16,
		RunTime: &rt,
		Device:  "xpu",
	}
}

// SideStats summarizes one component of a validation run (one row pair
// of Tables 2 and 3).
type SideStats struct {
	Timesteps       int
	TransportEvents int
	IterMean        float64
	IterStd         float64
}

// ValidationResult is a full validation run.
type ValidationResult struct {
	Mode     ValidationMode
	Sim      SideStats
	Train    SideStats
	Timeline *trace.Timeline
	// MakespanS is the unscaled workflow duration in emulated seconds.
	MakespanS float64
}

// oneToOne derives the workflow RunValidation runs: the mode's component
// configurations and the two arrays of a snapshot, inputs and targets
// (PayloadBytes and an eighth of it).
func (c ValidationConfig) oneToOne() OneToOneConfig {
	return OneToOneConfig{
		Backend:     c.Backend,
		Sim:         c.simConfig(),
		AI:          c.aiConfig(),
		TrainIters:  c.TrainIters,
		WritePeriod: c.WritePeriod,
		ReadPeriod:  c.ReadPeriod,
		ArrayBytes:  []int{c.PayloadBytes, c.PayloadBytes / 8},
		TimeScale:   c.TimeScale,
		SimInitS:    c.SimInitS,
		TrainInitS:  c.TrainInitS,
		Seed:        c.Seed,
		Clock:       c.Clock,
	}
}

// RunValidation runs the one-to-one workflow (RunOneToOne) configured
// for one side of the §4.1.1 comparison and reduces the component
// reports to the rows of Tables 2 and 3. Zero fields take the paper's
// values; the default clock is the virtual one. Cancelling ctx aborts
// both components at their next iteration boundary.
func RunValidation(ctx context.Context, cfg ValidationConfig) (*ValidationResult, error) {
	cfg = cfg.withDefaults()
	r, err := RunOneToOne(ctx, cfg.oneToOne())
	if err != nil {
		return nil, err
	}
	return &ValidationResult{
		Mode: cfg.Mode,
		Sim: SideStats{
			Timesteps:       r.Sim.Iterations,
			TransportEvents: r.Sim.Writes + r.Sim.Reads,
			IterMean:        r.Sim.IterMean,
			IterStd:         r.Sim.IterStd,
		},
		Train: SideStats{
			Timesteps:       r.Train.Iterations,
			TransportEvents: r.Train.Reads,
			IterMean:        r.Train.IterMean,
			IterStd:         r.Train.IterStd,
		},
		Timeline:  r.Timeline,
		MakespanS: r.MakespanS,
	}, nil
}

// table2Table structures the event-count comparison (Table 2).
func table2Table(original, miniApp *ValidationResult) scenario.Table {
	t := scenario.Table{
		Title: "Table 2 — time steps and data-transport events",
		Columns: []scenario.Column{
			{Key: "mode", Head: "", HeadFmt: "%-10s", CellFmt: "%-10s"},
			{Key: "sim_steps", Head: "sim steps", HeadFmt: "%12s", CellFmt: "%12d"},
			{Key: "sim_transport", Head: "sim transport", HeadFmt: "%14s", CellFmt: "%14d"},
			{Key: "train_steps", Head: "train steps", HeadFmt: "%12s", CellFmt: "%12d"},
			{Key: "train_transport", Head: "train transport", HeadFmt: "%14s", CellFmt: "%14d"},
		},
	}
	for _, r := range []*ValidationResult{original, miniApp} {
		t.Rows = append(t.Rows, []any{r.Mode.String(), r.Sim.Timesteps, r.Sim.TransportEvents,
			r.Train.Timesteps, r.Train.TransportEvents})
	}
	return t
}

// table3Table structures the iteration-time comparison (Table 3).
func table3Table(original, miniApp *ValidationResult) scenario.Table {
	t := scenario.Table{
		Title: "Table 3 — iteration time mean / std (s)",
		Columns: []scenario.Column{
			{Key: "mode", Head: "", HeadFmt: "%-10s", CellFmt: "%-10s"},
			{Key: "sim_iter_mean_s", Head: "sim mean", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "sim_iter_std_s", Head: "sim std", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "train_iter_mean_s", Head: "train mean", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "train_iter_std_s", Head: "train std", HeadFmt: "%12s", CellFmt: "%12.4f"},
		},
	}
	for _, r := range []*ValidationResult{original, miniApp} {
		t.Rows = append(t.Rows, []any{r.Mode.String(), r.Sim.IterMean, r.Sim.IterStd,
			r.Train.IterMean, r.Train.IterStd})
	}
	return t
}

// fig2Tables renders the two execution timelines as freeform ASCII
// tables (Fig 2): a window of the run showing compute spans, transfer
// marks and init areas.
func fig2Tables(original, miniApp *ValidationResult, windowS float64) ([]scenario.Table, error) {
	var tables []scenario.Table
	for _, r := range []*ValidationResult{original, miniApp} {
		var body strings.Builder
		if err := r.Timeline.Render(&body, 0, windowS, 100); err != nil {
			return nil, err
		}
		tables = append(tables, scenario.Table{
			Title: fmt.Sprintf("Fig 2 (%s) — timeline, first %.0f emulated seconds "+
				"(█ compute, | transfer, ░ init)", r.Mode, windowS),
			Text: body.String(),
		})
	}
	return tables, nil
}
