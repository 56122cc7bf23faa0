// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§4):
//
//	Table 2/3, Fig 2 — validation of the one-to-one mini-app (real mode)
//	Fig 3/4         — Pattern 1 transport sweep (simulated cluster)
//	Fig 5/6         — Pattern 2 non-local transport and scaling (simulated)
//
// Each experiment returns structured results, which the scenario
// registry renders in the same rows/series the paper reports;
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The co-located workflow of Fig 3/4 is also what the scale-out and
// resilience families run. It is stated once: one staging-rank loop
// (flat.go), one fault layer a rank carries only when something can
// interrupt it (resilience.go), one harness (colocated.go).
package experiments

import (
	"context"
	"fmt"

	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
)

// Pattern1Config drives the Fig 3/4 sweep: the co-located one-to-one
// workflow on a simulated Aurora partition.
type Pattern1Config struct {
	Nodes   int
	Backend datastore.Backend
	SizeMB  float64
	// SimIterS / TrainIterS are the emulated iteration times measured
	// from the production workflow (Table 3 mini-app row).
	SimIterS   float64
	TrainIterS float64
	// WritePeriod: simulation writes a snapshot every this many solver
	// iterations (100 in the paper).
	WritePeriod int
	// ReadPeriod: the trainer checks for data every this many training
	// iterations (10 in the paper).
	ReadPeriod int
	// TrainIters: training iterations to simulate (>=2500 in the paper;
	// smaller values preserve the steady-state statistics).
	TrainIters int
	// MaxEvents caps the DES events the run may execute (0 = unlimited);
	// RunPattern1Checked surfaces the budget trip as an error.
	MaxEvents int64
	// Deprecated: ignored — a cell runs fastest on one Env; kept until
	// the benchmark stops setting it.
	Workers int
	// Params overrides the cost-model constants (zero value = Default).
	Params *costmodel.Params
}

// withDefaults fills unset (zero or negative) fields with the paper's
// values. SizeMB has none: zero is a zero-byte snapshot. NaN and ±Inf
// stay where they are for RunPattern1Checked to reject.
func (c Pattern1Config) withDefaults() Pattern1Config {
	positiveOr(&c.Nodes, 8)
	positiveOr(&c.SizeMB, 0)
	positiveOr(&c.SimIterS, 0.0325)
	positiveOr(&c.TrainIterS, 0.0633)
	positiveOr(&c.WritePeriod, 100)
	positiveOr(&c.ReadPeriod, 10)
	positiveOr(&c.TrainIters, 600)
	return c
}

// Pattern1Point is one (backend, size, nodes) measurement of Fig 3/4.
type Pattern1Point struct {
	Nodes     int
	Backend   datastore.Backend
	SizeMB    float64
	ReadGBps  float64 // per-process read throughput (Fig 3)
	WriteGBps float64 // per-process write throughput (Fig 3)
	ReadMeanS float64 // mean time per read event (Fig 4)
	WriteMean float64 // mean time per write event (Fig 4)
	SimIterS  float64 // compute reference lines of Fig 4
	TrainIter float64
	Writes    int64
	Reads     int64
}

// RunPattern1Checked simulates the co-located one-to-one workflow: 6
// simulation ranks and 6 trainer ranks per node, fully asynchronous
// staging through a dedicated deployment of the chosen backend
// (runColocated), and returns throughput and time-per-event statistics
// averaged over all processes and events (the paper's methodology). A
// NaN or infinite field is an error naming it; with cfg.MaxEvents set, a
// runaway simulation aborts with the structured des.BudgetExceeded error
// instead of looping forever.
func RunPattern1Checked(cfg Pattern1Config) (Pattern1Point, error) {
	cfg = cfg.withDefaults()
	run, err := runColocated(ScaleOutConfig{ // one tenant, all the nodes
		Tenants: 1, NodesPerTenant: cfg.Nodes, Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		SimIterS: cfg.SimIterS, TrainIterS: cfg.TrainIterS,
		WritePeriod: cfg.WritePeriod, ReadPeriod: cfg.ReadPeriod, TrainIters: cfg.TrainIters,
		MaxEvents: cfg.MaxEvents, Params: cfg.Params,
	}, false, nil)
	if err != nil {
		return Pattern1Point{}, fmt.Errorf("pattern1 (%s, %g MB, %d nodes): %w",
			cfg.Backend, cfg.SizeMB, cfg.Nodes, err)
	}
	return Pattern1Point{
		Nodes:     cfg.Nodes,
		Backend:   cfg.Backend,
		SizeMB:    cfg.SizeMB,
		ReadGBps:  run.readTput.MeanGBps(),
		WriteGBps: run.writeTput.MeanGBps(),
		ReadMeanS: run.readTime.Mean(),
		WriteMean: run.writeTime.Mean(),
		SimIterS:  cfg.SimIterS,
		TrainIter: cfg.TrainIterS,
		Writes:    run.writeTime.N(),
		Reads:     run.readTime.N(),
	}, nil
}

// Fig3Sizes are the paper's message sizes for Pattern 1.
var Fig3Sizes = []float64{0.4, 2, 8, 32}

// Fig3NodeCounts are the two scales shown in Fig 3.
var Fig3NodeCounts = []int{8, 512}

// pattern1Grid sweeps backends × Fig3Sizes at one node count, fanning
// the independent points across cores (see sweep.Workers): the grid of
// Fig 3 (every backend) and of Fig 4 (the two extremes). fig names the
// figure in the failure records.
func pattern1Grid(ctx context.Context, p scenario.Params, fig string, backends []datastore.Backend, nodes int) ([]Pattern1Point, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, fmt.Sprintf("%s/%d-nodes", fig, nodes), backends, Fig3Sizes,
		func(b datastore.Backend, size float64) (Pattern1Point, error) {
			return RunPattern1Checked(Pattern1Config{
				Nodes: nodes, Backend: b, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents,
			})
		})
}

// fig3Table structures Fig-3-style rows — per-process read and write
// throughput by backend and data size — for the reporters.
func fig3Table(nodes int, points []Pattern1Point) scenario.Table {
	t := scenario.Table{
		Title: fmt.Sprintf("Fig 3 — Pattern 1 read/write throughput per process, %d nodes", nodes),
		Columns: []scenario.Column{
			{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "read_gbps", Head: "read(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
			{Key: "write_gbps", Head: "write(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
		},
	}
	for _, pt := range points {
		if pt.Nodes != nodes {
			continue
		}
		t.Rows = append(t.Rows, []any{pt.Backend.String(), pt.SizeMB, pt.ReadGBps, pt.WriteGBps})
	}
	return t
}

// Fig4Backends are the two extremes compared in Fig 4.
var Fig4Backends = []datastore.Backend{datastore.NodeLocal, datastore.FileSystem}

// fig4Table structures Fig-4-style rows: mean time per event for compute
// (Sim iter, AI iter) versus transport (read, write).
func fig4Table(nodes int, points []Pattern1Point) scenario.Table {
	t := scenario.Table{
		Title: fmt.Sprintf("Fig 4 — Pattern 1 compute vs transport time per event, %d nodes", nodes),
		Columns: []scenario.Column{
			{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "sim_iter_s", Head: "sim-iter(s)", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "ai_iter_s", Head: "ai-iter(s)", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "write_mean_s", Head: "write(s)", HeadFmt: "%12s", CellFmt: "%12.4f"},
			{Key: "read_mean_s", Head: "read(s)", HeadFmt: "%12s", CellFmt: "%12.4f"},
		},
	}
	for _, pt := range points {
		if pt.Nodes != nodes {
			continue
		}
		t.Rows = append(t.Rows, []any{pt.Backend.String(), pt.SizeMB,
			pt.SimIterS, pt.TrainIter, pt.WriteMean, pt.ReadMeanS})
	}
	return t
}
