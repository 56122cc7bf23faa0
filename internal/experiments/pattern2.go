package experiments

import (
	"context"
	"fmt"
	"slices"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// Pattern2Backends are the backends that support non-local access
// (node-local tmpfs is excluded, exactly as in the paper: "a node-local
// solution using tmpfs is not possible in this case").
var Pattern2Backends = []datastore.Backend{datastore.Redis, datastore.FileSystem, datastore.Dragon}

// remoteBackend refuses, naming the Backend field, a backend the AI
// component could not read from another node: the cost model has no
// remote path for it and would panic mid-run.
func remoteBackend(b datastore.Backend) error {
	if slices.Contains(Pattern2Backends, b) {
		return nil
	}
	return fmt.Errorf("Backend = %v: pattern 2 reads the staged data from another node, want one of %v", b, Pattern2Backends)
}

// Fig5Config drives the 2-node point-to-point experiment: the simulation
// stages data to its local backend on node 0, the AI component reads it
// non-locally from node 1.
type Fig5Config struct {
	Backend datastore.Backend
	SizeMB  float64
	// Transfers: how many write/read pairs to sample.
	Transfers int
	// MaxEvents caps the events the transfer chain may execute — its
	// start and one per timed phase (0 = unlimited); RunFig5Checked
	// surfaces the budget trip as a des.BudgetExceeded error.
	MaxEvents int64
	Params    *costmodel.Params
}

// Fig5Point is one (backend, size) measurement: local-write and
// non-local-read throughput per process.
type Fig5Point struct {
	Backend   datastore.Backend
	SizeMB    float64
	ReadGBps  float64
	WriteGBps float64
}

// RunFig5Checked measures the 2-node local-write / non-local-read
// pattern. A negative field is the unset one; a NaN or infinite SizeMB,
// or a backend outside Pattern2Backends, is an error naming the field;
// with cfg.MaxEvents set, a runaway simulation aborts with the
// structured des.BudgetExceeded error.
func RunFig5Checked(cfg Fig5Config) (Fig5Point, error) {
	positiveOr(&cfg.Transfers, 50)
	positiveOr(&cfg.SizeMB, 0)
	err := remoteBackend(cfg.Backend)
	if err == nil {
		err = finite(knob{"SizeMB", cfg.SizeMB})
	}
	if err != nil {
		return Fig5Point{}, fmt.Errorf("fig5 (%s, %g MB): %w", cfg.Backend, cfg.SizeMB, err)
	}
	params := costmodel.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	write := params.LocalCost(cfg.Backend, cfg.SizeMB, false)
	read := params.RemoteReadCost(cfg.Backend, cfg.SizeMB)
	bytes := int64(cfg.SizeMB * 1e6)

	// The local write on node 0 and the remote read are strictly serial,
	// and every resource they touch has this one claimant, so each request
	// is granted at once and only the timed phases move the clock. Adding
	// them up in chain order gives the floats an Env would (After(d) is
	// At(now+d)); the start event counts against the budget too.
	clock := serialClock{budget: cfg.MaxEvents, events: 1}
	var writeTput, readTput stats.Throughput
	for range cfg.Transfers {
		start := clock.now
		clock.xfer(write)
		writeTput.Add(bytes, clock.now-start)
		start = clock.now
		clock.xfer(read)
		readTput.Add(bytes, clock.now-start)
		if clock.err != nil {
			return Fig5Point{}, fmt.Errorf("fig5 (%s, %g MB): %w", cfg.Backend, cfg.SizeMB, clock.err)
		}
	}
	return Fig5Point{
		Backend:   cfg.Backend,
		SizeMB:    cfg.SizeMB,
		ReadGBps:  readTput.MeanGBps(),
		WriteGBps: writeTput.MeanGBps(),
	}, nil
}

// serialClock is the clock of one serial chain of timed phases under a
// guarded des.Env's event budget: the phase that would exceed it is not
// taken, and err records the trip as the Env would.
type serialClock struct {
	now    float64
	events int64
	budget int64 // 0 = unlimited
	err    *des.BudgetExceeded
}

// xfer takes one transfer's phases in the order a transfer chain
// schedules them.
func (c *serialClock) xfer(x costmodel.XferCost) {
	for range x.MetaOps {
		c.phase(x.RPCS)
		c.phase(x.MDSS)
	}
	c.phase(x.HoldS)
}

func (c *serialClock) phase(d float64) {
	switch {
	case c.err != nil:
	case c.budget > 0 && c.events >= c.budget:
		c.err = &des.BudgetExceeded{Guard: des.Guard{MaxEvents: c.budget}, Events: c.events, Now: c.now}
	default:
		c.events++
		c.now += d
	}
}

// Fig5Sizes spans the paper's log-scale x axis (10^0 .. ~10^2 MB).
var Fig5Sizes = []float64{0.4, 1, 4, 10, 32, 128}

// fig5Grid runs the full Fig 5 grid, one worker per point.
func fig5Grid(ctx context.Context, p scenario.Params) ([]Fig5Point, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, "fig5", Pattern2Backends, Fig5Sizes,
		func(b datastore.Backend, size float64) (Fig5Point, error) {
			return RunFig5Checked(Fig5Config{
				Backend: b, SizeMB: size, Transfers: p.Transfers, MaxEvents: p.MaxEvents,
			})
		})
}

// fig5Table structures Fig-5-style rows for the reporters.
func fig5Table(points []Fig5Point) scenario.Table {
	t := scenario.Table{
		Title: "Fig 5 — Pattern 2, 2 nodes: non-local read / local write throughput per process",
		Columns: []scenario.Column{
			{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "read_gbps", Head: "read(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
			{Key: "write_gbps", Head: "write(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
		},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []any{pt.Backend.String(), pt.SizeMB, pt.ReadGBps, pt.WriteGBps})
	}
	return t
}

// Fig6Config drives the many-to-one scaling experiment: one simulation
// component per node staging locally, a single AI component on its own
// node reading the whole ensemble every read period and blocking until
// all arrays arrive.
type Fig6Config struct {
	// Nodes is the number of simulation nodes (one sim component each);
	// the trainer gets its own additional node.
	Nodes   int
	Backend datastore.Backend
	SizeMB  float64
	// SimIterS / TrainIterS: emulated iteration times (same as Pattern 1).
	SimIterS   float64
	TrainIterS float64
	// WritePeriod / ReadPeriod in iterations (10 and 10 in the paper).
	WritePeriod int
	ReadPeriod  int
	// TrainIters: training iterations to simulate.
	TrainIters int
	// MaxEvents caps the DES events the run may execute (0 = unlimited);
	// RunFig6Checked surfaces the budget trip as an error.
	MaxEvents int64
	Params    *costmodel.Params
}

// withDefaults fills unset (zero or negative) fields with the paper's
// values, as Pattern1Config's does.
func (c Fig6Config) withDefaults() Fig6Config {
	positiveOr(&c.Nodes, 8)
	positiveOr(&c.SizeMB, 0)
	positiveOr(&c.SimIterS, 0.0325)
	positiveOr(&c.TrainIterS, 0.0633)
	positiveOr(&c.WritePeriod, 10)
	positiveOr(&c.ReadPeriod, 10)
	positiveOr(&c.TrainIters, 300)
	return c
}

// Fig6Point is one (nodes, backend, size) measurement: the trainer's
// execution time per iteration, compute plus blocking ensemble reads —
// exactly the paper's metric ("total execution time of the training
// component divided by the number of iterations").
type Fig6Point struct {
	Nodes        int
	Backend      datastore.Backend
	SizeMB       float64
	ExecPerIterS float64
	FetchMeanS   float64 // mean blocking ensemble-read time per period
}

// RunFig6Checked simulates the many-to-one pattern at scale. A NaN or
// infinite field, or a backend outside Pattern2Backends, is an error
// naming it, and so is a run too short to hold one training period (it
// would report zeros as data); with cfg.MaxEvents set, a runaway
// simulation aborts with the structured des.BudgetExceeded error.
func RunFig6Checked(cfg Fig6Config) (Fig6Point, error) {
	cfg = cfg.withDefaults()
	fail := func(err error) (Fig6Point, error) {
		return Fig6Point{}, fmt.Errorf("fig6 (%s, %g MB, %d nodes): %w", cfg.Backend, cfg.SizeMB, cfg.Nodes, err)
	}
	if err := remoteBackend(cfg.Backend); err != nil {
		return fail(err)
	}
	if err := finite(knob{"SizeMB", cfg.SizeMB}, knob{"SimIterS", cfg.SimIterS}, knob{"TrainIterS", cfg.TrainIterS}); err != nil {
		return fail(err)
	}
	periods := cfg.TrainIters / cfg.ReadPeriod
	if periods == 0 {
		return fail(fmt.Errorf("TrainIters = %d is shorter than one ReadPeriod = %d: no training period to measure",
			cfg.TrainIters, cfg.ReadPeriod))
	}
	spec := cluster.Aurora(cfg.Nodes + 1) // +1 trainer node
	env := newGuardedEnv(cfg.MaxEvents)
	params := costmodel.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	model := costmodel.New(env, spec, params)

	// A cap, not the expected run length: the trainer stops the run at
	// the end of its last period (fig6Trainer), and only a backend too
	// slow to finish inside ten times the compute time runs this far.
	horizon := float64(cfg.TrainIters) * cfg.TrainIterS * 10
	var fetchTime stats.Welford

	// Simulation components: one per node, staging locally every write
	// period. For the file-system backend these writes land on the shared
	// Lustre model and contribute real MDS/OST load.
	for node := 0; node < cfg.Nodes; node++ {
		initRank(new(stagingRank), env, model, rankConfig{
			backend: cfg.Backend, node: node, sizeMB: cfg.SizeMB, write: true,
			period:  float64(cfg.WritePeriod) * cfg.SimIterS,
			horizon: horizon,
		})
	}

	// Trainer: compute for a read period, then a blocking ensemble read
	// of one array from every simulation. Progress is tracked per period
	// so the exec/iter metric stays correct even when a slow backend
	// (Redis at the largest sizes) does not finish within the horizon.
	var lastPeriodEnd float64
	completedPeriods := 0
	newFig6Trainer(env, model, fig6TrainerConfig{
		backend: cfg.Backend, nodes: cfg.Nodes, sizeMB: cfg.SizeMB,
		periods:   periods,
		sleepS:    float64(cfg.ReadPeriod) * cfg.TrainIterS,
		fetchTime: &fetchTime, lastPeriodEnd: &lastPeriodEnd, completedPeriods: &completedPeriods,
	})
	env.RunUntil(horizon)
	if err := env.Err(); err != nil {
		return fail(err)
	}

	execPerIter := 0.0
	if completedPeriods > 0 {
		execPerIter = lastPeriodEnd / float64(completedPeriods*cfg.ReadPeriod)
	}
	return Fig6Point{
		Nodes:        cfg.Nodes,
		Backend:      cfg.Backend,
		SizeMB:       cfg.SizeMB,
		ExecPerIterS: execPerIter,
		FetchMeanS:   fetchTime.Mean(),
	}, nil
}

// Fig6Sizes spans the paper's per-process data-size axis.
var Fig6Sizes = []float64{0.4, 1, 4, 10, 32, 128}

// Fig6NodeCounts are the two ensemble scales of Fig 6.
var Fig6NodeCounts = []int{8, 128}

// fig6Grid runs the full Fig 6 grid at one node count, one worker per
// point.
func fig6Grid(ctx context.Context, p scenario.Params, nodes int) ([]Fig6Point, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, fmt.Sprintf("fig6/%d-nodes", nodes), Pattern2Backends, Fig6Sizes,
		func(b datastore.Backend, size float64) (Fig6Point, error) {
			return RunFig6Checked(Fig6Config{
				Nodes: nodes, Backend: b, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents,
			})
		})
}

// fig6Table structures Fig-6-style rows for the reporters.
func fig6Table(nodes int, points []Fig6Point) scenario.Table {
	t := scenario.Table{
		Title: fmt.Sprintf("Fig 6 — Pattern 2 training runtime per iteration, %d simulation nodes", nodes),
		Columns: []scenario.Column{
			{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
			{Key: "exec_per_iter_s", Head: "exec/iter(s)", HeadFmt: "%18s", CellFmt: "%18.4f"},
			{Key: "fetch_mean_s", Head: "fetch-mean(s)", HeadFmt: "%16s", CellFmt: "%16.4f"},
		},
	}
	for _, pt := range points {
		if pt.Nodes != nodes {
			continue
		}
		t.Rows = append(t.Rows, []any{pt.Backend.String(), pt.SizeMB, pt.ExecPerIterS, pt.FetchMeanS})
	}
	return t
}
