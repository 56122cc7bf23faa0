package experiments

import (
	"fmt"
	"math"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// The co-located one-to-one workflow — six solver and six trainer ranks
// per node, staging asynchronously through one backend — is what Pattern
// 1 (one tenant, a dedicated deployment), scale-out (N tenants, one
// shared deployment) and resilience (shared, and disturbed) all
// simulate. It is stated here once, over ScaleOutConfig as the workload;
// the three entry points are defaults -> runColocated -> a projection
// into their point type.

// colocatedRun is what a co-located run leaves behind, unprojected.
type colocatedRun struct {
	model     *costmodel.Model
	horizon   float64
	endT      float64 // virtual time of the last event
	bytes     int64
	simRanks  int
	writeTime stats.Welford
	readTime  stats.Welford
	writeTput stats.Throughput
	readTput  stats.Throughput
	samples   []float64   // per-write staging latencies (shared runs only)
	faults    *faultState // what disturb returned, if anything did
}

// positiveOr replaces a non-positive knob with its default; NaN and ±Inf
// stay, for finite to name.
func positiveOr[T int | float64](v *T, def T) {
	if *v <= 0 && !math.IsInf(float64(*v), -1) {
		*v = def
	}
}

// knob is a float field under its exported name.
type knob struct {
	name string
	v    float64
}

// finite returns an error naming the first knob that is NaN or ±Inf: as
// a time it would panic the event queue or never come, as a size it
// would report garbage.
func finite(knobs ...knob) error {
	for _, k := range knobs {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("%s = %v: want a finite value", k.name, k.v)
		}
	}
	return nil
}

// runColocated simulates the workload w (defaults already applied) on
// w.Tenants × w.NodesPerTenant nodes: the staging ranks of flat.go on each
// node in node order, run to 1.5× the training horizon. shared stages
// through one multi-tenant deployment instead of a dedicated one, and
// keeps every write's latency for the p50 those harnesses report.
// disturb, when set, is called once the model exists and before any rank
// does, and every rank carries the fault layer of the state it returns.
// The only errors are a non-finite knob and a tripped event budget.
func runColocated(w ScaleOutConfig, shared bool, disturb func(*des.Env, cluster.Spec, *costmodel.Model, float64) *faultState) (*colocatedRun, error) {
	if err := finite(knob{"SizeMB", w.SizeMB}, knob{"SimIterS", w.SimIterS}, knob{"TrainIterS", w.TrainIterS}); err != nil {
		return nil, err
	}
	nodes := w.Tenants * w.NodesPerTenant
	spec := cluster.Aurora(nodes)
	place := cluster.Pattern1Placement(spec)
	env := newGuardedEnv(w.MaxEvents)
	params := costmodel.Default()
	if w.Params != nil {
		params = *w.Params
	}
	run := &colocatedRun{
		model:    costmodel.New(env, spec, params),
		horizon:  float64(w.TrainIters) * w.TrainIterS,
		bytes:    int64(w.SizeMB * 1e6),
		simRanks: nodes * place.SimTilesPerNode,
	}

	// Solver ranks write one snapshot per write period; the compute in
	// between is one virtual sleep (iteration timing is deterministic).
	// Trainer ranks poll every read period but read only when fresh data
	// can exist, once per write period, as the real workflow's
	// asynchronous polling does.
	writePeriod := float64(w.WritePeriod) * w.SimIterS
	solver := rankConfig{
		backend: w.Backend, sizeMB: w.SizeMB, write: true, shared: shared,
		period: writePeriod, horizon: run.horizon, bytes: run.bytes,
		time: &run.writeTime, tput: &run.writeTput,
	}
	trainer := rankConfig{
		backend: w.Backend, sizeMB: w.SizeMB, shared: shared,
		period: float64(w.ReadPeriod) * w.TrainIterS, fresh: writePeriod,
		horizon: run.horizon, bytes: run.bytes,
		time: &run.readTime, tput: &run.readTput,
	}
	if shared {
		// Sized for ranks × periods writes, plus boundary slack.
		run.samples = make([]float64, 0, run.simRanks*(int(run.horizon/writePeriod)+2))
		solver.samples = &run.samples
	}
	if disturb != nil {
		run.faults = disturb(env, spec, run.model, run.horizon)
		solver.faults, trainer.faults = run.faults, run.faults
	}
	// A slab per rank kind, not an allocation per rank (6144 ranks at 512
	// nodes), and not one slab for both: ranks of a kind wake together,
	// and a 4096-node cell runs 8 % slower with trainers in between.
	solvers := make([]stagingRank, run.simRanks)
	trainers := make([]stagingRank, nodes*place.AITilesPerNode)
	wi, ri := 0, 0
	for node := 0; node < nodes; node++ {
		solver.node, trainer.node = node, node
		for k := 0; k < place.SimTilesPerNode; k++ {
			solver.stagger = float64(wi) / float64(run.simRanks)
			initRank(&solvers[wi], env, run.model, solver)
			wi++
		}
		for k := 0; k < place.AITilesPerNode; k++ {
			initRank(&trainers[ri], env, run.model, trainer)
			ri++
		}
	}
	run.endT = env.RunUntil(run.horizon * 1.5)
	if err := env.Err(); err != nil {
		return nil, err
	}
	if run.endT <= 0 {
		run.endT = run.horizon
	}
	return run, nil
}

// aggGBps is the run's aggregate staged-write throughput.
func (r *colocatedRun) aggGBps() float64 {
	if r.writeTime.N() == 0 {
		return 0
	}
	return float64(r.writeTime.N()) * float64(r.bytes) / 1e9 / r.endT
}
