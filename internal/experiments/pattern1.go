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
package experiments

import (
	"context"
	"fmt"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
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

// withDefaults fills unset fields with the paper's values.
func (c Pattern1Config) withDefaults() Pattern1Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.SimIterS == 0 {
		c.SimIterS = 0.0325
	}
	if c.TrainIterS == 0 {
		c.TrainIterS = 0.0633
	}
	if c.WritePeriod == 0 {
		c.WritePeriod = 100
	}
	if c.ReadPeriod == 0 {
		c.ReadPeriod = 10
	}
	if c.TrainIters == 0 {
		c.TrainIters = 600
	}
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
// staging through the chosen backend, and returns throughput and
// time-per-event statistics averaged over all processes and events (the
// paper's methodology). Ranks run as flat callback state machines (see
// flat.go), so a 512-node point costs no goroutines and no steady-state
// allocations. With cfg.MaxEvents set, a runaway simulation aborts with
// the structured des.BudgetExceeded error instead of looping forever;
// with no budget it never fails.
func RunPattern1Checked(cfg Pattern1Config) (Pattern1Point, error) {
	cfg = cfg.withDefaults()
	spec := cluster.Aurora(cfg.Nodes)
	place := cluster.Pattern1Placement(spec)
	env := newGuardedEnv(cfg.MaxEvents)
	params := costmodel.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	model := costmodel.New(env, spec, params)

	horizon := float64(cfg.TrainIters) * cfg.TrainIterS
	var writeTput, readTput stats.Throughput
	var writeTime, readTime stats.Welford
	bytes := int64(cfg.SizeMB * 1e6)

	// Rank machines live in two slabs — one allocation each instead of
	// one per rank, which matters at 512 nodes (3072 ranks).
	writers := make([]simWriter, cfg.Nodes*place.SimTilesPerNode)
	readers := make([]aiReader, cfg.Nodes*place.AITilesPerNode)
	wi, ri := 0, 0
	for node := 0; node < cfg.Nodes; node++ {
		// Simulation ranks: write one snapshot per write period. The
		// compute between writes is a single virtual sleep (iteration
		// timing is deterministic, so batching sleeps loses nothing).
		for r := 0; r < place.SimTilesPerNode; r++ {
			initSimWriter(&writers[wi], env, model, simWriterConfig{
				backend: cfg.Backend, node: node, sizeMB: cfg.SizeMB,
				period:  float64(cfg.WritePeriod) * cfg.SimIterS,
				horizon: horizon, bytes: bytes,
				time: &writeTime, tput: &writeTput,
			})
			wi++
		}
		// Trainer ranks: read one snapshot per read period, but only
		// when fresh data exists — once per write period, matching the
		// asynchronous polling of the real workflow (most polls find
		// nothing new; those cost no transfer).
		for r := 0; r < place.AITilesPerNode; r++ {
			initAIReader(&readers[ri], env, model, aiReaderConfig{
				backend: cfg.Backend, node: node, sizeMB: cfg.SizeMB,
				readPeriod:  float64(cfg.ReadPeriod) * cfg.TrainIterS,
				writePeriod: float64(cfg.WritePeriod) * cfg.SimIterS,
				horizon:     horizon, bytes: bytes,
				time: &readTime, tput: &readTput,
			})
			ri++
		}
	}
	env.RunUntil(horizon * 1.5)
	if err := env.Err(); err != nil {
		return Pattern1Point{}, fmt.Errorf("pattern1 (%s, %g MB, %d nodes): %w",
			cfg.Backend, cfg.SizeMB, cfg.Nodes, err)
	}

	return Pattern1Point{
		Nodes:     cfg.Nodes,
		Backend:   cfg.Backend,
		SizeMB:    cfg.SizeMB,
		ReadGBps:  readTput.MeanGBps(),
		WriteGBps: writeTput.MeanGBps(),
		ReadMeanS: readTime.Mean(),
		WriteMean: writeTime.Mean(),
		SimIterS:  cfg.SimIterS,
		TrainIter: cfg.TrainIterS,
		Writes:    writeTime.N(),
		Reads:     readTime.N(),
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
