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
	params := paramsOr(cfg.Params)
	write := params.LocalCost(cfg.Backend, cfg.SizeMB, false)
	read := params.RemoteReadCost(cfg.Backend, cfg.SizeMB)
	bytes := int64(cfg.SizeMB * 1e6)

	// The local write on node 0 and the remote read are strictly serial,
	// and every resource they touch has this one claimant, so each request
	// is granted at once and only the timed phases move the clock. Adding
	// them up in chain order gives the floats an Env would (After(d) is
	// At(now+d)). After the start event, every transfer the budget lets
	// finish runs in one loop that keeps the clock and both means in
	// registers; the one that would cross it then runs phase by phase, so
	// the trip reports the Env's Events and Now. A transfer's chain runs
	// two events per metadata round and one for its hold.
	clock := des.NewSerial(des.Guard{MaxEvents: cfg.MaxEvents})
	clock.Run(0, 1)
	perXfer := 2*int64(max(write.MetaOps, 0)+max(read.MetaOps, 0)) + 2
	fits := min(cfg.Transfers, clock.Fits(perXfer))
	now := 0.0
	var writeTput, readTput stats.Throughput
	for range fits {
		start := now
		now = xferEnd(write, now)
		writeTput = writeTput.With(bytes, now-start)
		start = now
		now = xferEnd(read, now)
		readTput = readTput.With(bytes, now-start)
	}
	clock.Run(now, int64(fits)*perXfer)
	if fits < cfg.Transfers {
		for _, x := range [2]costmodel.XferCost{write, read} {
			for range x.MetaOps {
				now += x.RPCS
				clock.Run(now, 1)
				now += x.MDSS
				clock.Run(now, 1)
			}
			now += x.HoldS
			clock.Run(now, 1)
		}
		return Fig5Point{}, fmt.Errorf("fig5 (%s, %g MB): %w", cfg.Backend, cfg.SizeMB, clock.Err())
	}
	return Fig5Point{
		Backend:   cfg.Backend,
		SizeMB:    cfg.SizeMB,
		ReadGBps:  readTput.MeanGBps(),
		WriteGBps: writeTput.MeanGBps(),
	}, nil
}

// xferEnd is when a transfer started at now ends: its phases added up
// in the order a transfer chain schedules them.
func xferEnd(x costmodel.XferCost, now float64) float64 {
	for range x.MetaOps {
		now += x.RPCS
		now += x.MDSS
	}
	return now + x.HoldS
}

// Fig5Sizes spans the paper's log-scale x axis (10^0 .. ~10^2 MB).
var Fig5Sizes = []float64{0.4, 1, 4, 10, 32, 128}

// fig5Grid runs the full Fig 5 grid, its points in order on the
// calling goroutine: each is a closed form of a few microseconds, which
// a second worker would slow down.
func fig5Grid(ctx context.Context, p scenario.Params) ([]Fig5Point, []scenario.CellFailure, error) {
	return inOrderGrid(ctx, p, "fig5", Pattern2Backends, Fig5Sizes,
		func(b datastore.Backend, size float64) (Fig5Point, error) {
			return RunFig5Checked(Fig5Config{
				Backend: b, SizeMB: size, Transfers: p.Transfers, MaxEvents: p.MaxEvents,
			})
		})
}

// fig5Table structures Fig-5-style rows for the reporters.
func fig5Table(points []Fig5Point) scenario.Table {
	t := scenario.NewTable("Fig 5 — Pattern 2, 2 nodes: non-local read / local write throughput per process", len(points), []scenario.Column{
		{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
		{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
		{Key: "read_gbps", Head: "read(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
		{Key: "write_gbps", Head: "write(GB/s)", HeadFmt: "%14s", CellFmt: "%14.3f"},
	})
	for _, pt := range points {
		t.AddRow(scenario.S(pt.Backend.String()), scenario.F(pt.SizeMB), scenario.F(pt.ReadGBps), scenario.F(pt.WriteGBps))
	}
	return t
}

// Fig6Config drives the many-to-one scaling experiment: one simulation
// component per node staging locally, a single AI component on its own
// node reading the whole ensemble every read period and blocking until
// all arrays arrive. Only the AI component is modeled: the staging
// writes load the node buses and the Lustre model, which no ensemble
// fetch queues on, so they cannot move what Fig 6 reports.
type Fig6Config struct {
	// Nodes is the number of simulation nodes (one sim component each);
	// the trainer gets its own additional node.
	Nodes   int
	Backend datastore.Backend
	SizeMB  float64
	// TrainIterS: emulated training iteration time (same as Pattern 1);
	// ReadPeriod in iterations (10 in the paper).
	TrainIterS float64
	ReadPeriod int
	// TrainIters: training iterations to simulate.
	TrainIters int
	// MaxEvents caps the events the trainer's chain may execute (0 =
	// unlimited); RunFig6Checked surfaces the budget trip as an error.
	MaxEvents int64
	Params    *costmodel.Params
}

// withDefaults fills unset (zero or negative) fields with the paper's
// values, as Pattern1Config's does.
func (c Fig6Config) withDefaults() Fig6Config {
	positiveOr(&c.Nodes, 8)
	positiveOr(&c.SizeMB, 0)
	positiveOr(&c.TrainIterS, trainerIterS)
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
	if err := finite(knob{"SizeMB", cfg.SizeMB}, knob{"TrainIterS", cfg.TrainIterS}); err != nil {
		return fail(err)
	}
	periods := cfg.TrainIters / cfg.ReadPeriod
	if periods == 0 {
		return fail(scenario.TooShortError(fmt.Sprintf("TrainIters = %d is shorter than one ReadPeriod = %d: no training period to measure",
			cfg.TrainIters, cfg.ReadPeriod)))
	}
	params := paramsOr(cfg.Params)
	fetch := params.EnsembleFetchCost(cfg.Backend, cfg.Nodes, cfg.SizeMB, cluster.Aurora(cfg.Nodes+1).NICGBps)
	sleepS := float64(cfg.ReadPeriod) * cfg.TrainIterS

	// The trainer's first event, at 0, sleeps a read period; each wake
	// then reads one array from every simulation, blocking until all
	// arrive. As the fetches' one claimant, a read starts on an idle NIC
	// and semaphore and runs as FetchCost says, and adding its waves up
	// in chain order gives the floats an Env would. Only completed
	// periods count, so exec/iter stays right when a slow backend (Redis
	// at 32+ MB) does not finish inside the horizon, a 10x compute cap.
	clock := des.NewSerial(des.Guard{MaxEvents: cfg.MaxEvents})
	clock.SetHorizon(float64(cfg.TrainIters) * cfg.TrainIterS * 10)
	clock.Run(0, 1)
	var fetchTime stats.Welford
	lastPeriodEnd := 0.0
periods:
	for range periods {
		start := lastPeriodEnd + sleepS
		t := start
		if !clock.Run(t, 1+int64(fetch.N)) { // the wake, and one start per fetch
			break
		}
		for j := range fetch.Waves() {
			if t += fetch.HoldS; !clock.Run(t, fetch.WaveEvents(j)) {
				break periods
			}
		}
		fetchTime.Add(t - start)
		lastPeriodEnd = t
	}
	if err := clock.Err(); err != nil {
		return fail(err)
	}

	execPerIter := 0.0
	if n := fetchTime.N(); n > 0 {
		execPerIter = lastPeriodEnd / float64(n*int64(cfg.ReadPeriod))
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

// fig6Grid runs the full Fig 6 grid at one node count, its points in
// order on the calling goroutine: each is a closed form of a few to a
// few dozen microseconds, for which a second worker saves nothing.
func fig6Grid(ctx context.Context, p scenario.Params, nodes int) ([]Fig6Point, []scenario.CellFailure, error) {
	return inOrderGrid(ctx, p, fmt.Sprintf("fig6/%d-nodes", nodes), Pattern2Backends, Fig6Sizes,
		func(b datastore.Backend, size float64) (Fig6Point, error) {
			return RunFig6Checked(Fig6Config{
				Nodes: nodes, Backend: b, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents,
			})
		})
}

// fig6Table structures Fig-6-style rows for the reporters.
func fig6Table(nodes int, points []Fig6Point) scenario.Table {
	t := scenario.NewTable(fmt.Sprintf("Fig 6 — Pattern 2 training runtime per iteration, %d simulation nodes", nodes), len(points), []scenario.Column{
		{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
		{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
		{Key: "exec_per_iter_s", Head: "exec/iter(s)", HeadFmt: "%18s", CellFmt: "%18.4f"},
		{Key: "fetch_mean_s", Head: "fetch-mean(s)", HeadFmt: "%16s", CellFmt: "%16.4f"},
	})
	for _, pt := range points {
		t.AddRow(scenario.S(pt.Backend.String()), scenario.F(pt.SizeMB), scenario.F(pt.ExecPerIterS), scenario.F(pt.FetchMeanS))
	}
	return t
}
