package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/mpi"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// The gradsync scenario family: data-parallel training steps in the
// CollectDWts/MPIWtFmDWt shape (emer-style gradient synchronization) —
// every rank computes its gradients, AllReduces them, and applies the
// weight update — swept over model size × rank count × collective
// algorithm. The question it answers is one the paper never ran: when
// does collective-algorithm choice, not datastore backend, dominate
// the step? The AllReduce is priced by the algorithmic cost models of
// internal/mpi over the Aurora dragonfly (internal/cluster.Topology,
// bridged through internal/costmodel), so the sweep exposes the
// crossover: the hierarchy wins at small messages and high rank
// counts (latency-bound), the ring wins at large messages
// (bandwidth-bound).
//
// No cell runs an event queue. The gradient barrier makes every rank's
// step boundary the same expression of the per-(rank, step) compute
// jitter, so RunGradSync adds the steps up in closed form, in the order
// a sequential des.Env would execute them.

// Gradsync sweep axes (the -exp gradsync grid).
var (
	// GradSyncSizes are the per-rank gradient sizes in MB, spanning the
	// latency-bound through bandwidth-bound regimes.
	GradSyncSizes = []float64{0.25, 4, 64, 1024}
	// GradSyncRanks are the data-parallel rank counts (one rank per
	// dragonfly node).
	GradSyncRanks = []int{8, 64, 512}
	// GradSyncAlgos is the collective-algorithm axis, flat (the legacy
	// single-cost rendezvous) first.
	GradSyncAlgos = []string{"flat", "ring", "tree", "hier"}
)

// Deterministic training-step shape: compute scales affinely with
// model size, the optimizer update is memory-bandwidth bound, and each
// rank's per-step compute is skewed by a hash-derived jitter so the
// gradient barrier has a real straggler profile.
const (
	gradSyncComputeBaseS  = 0.030  // fixed forward/backward overhead per step
	gradSyncComputePerMBS = 0.0003 // compute seconds per model MB
	gradSyncUpdatePerMBS  = 5e-5   // optimizer update seconds per model MB
	gradSyncJitterFrac    = 0.08   // peak fractional compute skew
)

// gradSyncJitter returns the deterministic jitter u ∈ [0, 1) of one
// (rank, step) pair — a splitmix64-style hash, so the straggler
// pattern is reproducible bit-for-bit.
func gradSyncJitter(rank, step int) float64 {
	x := uint64(rank)*0x9E3779B97F4A7C15 + uint64(step)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// GradSyncConfig drives one gradsync measurement: Ranks data-parallel
// trainers, one per node of AuroraTopology(Ranks), synchronizing a
// ModelMB gradient with the Algo AllReduce every step.
type GradSyncConfig struct {
	// Ranks is the data-parallel world size (8).
	Ranks int
	// ModelMB is the per-rank gradient/model size in MB (4).
	ModelMB float64
	// Algo is the collective algorithm name (mpi.ParseCollAlgo); empty
	// falls back to Params.CollAlgo, whose empty default is flat.
	Algo string
	// Steps is the number of training steps (600).
	Steps int
	// Deprecated: ignored — a cell is a closed form on one core; kept
	// until the benchmark stops setting it.
	Workers int
	// MaxEvents arms the DES event budget (0 = unlimited).
	MaxEvents int64
	// Params overrides the calibrated cost-model constants.
	Params *costmodel.Params
}

func (c GradSyncConfig) withDefaults() GradSyncConfig {
	if c.Ranks < 1 {
		c.Ranks = 8
	}
	positiveOr(&c.ModelMB, 4)
	if c.Steps < 1 {
		c.Steps = 600
	}
	return c
}

// GradSyncPoint is one (ranks, size, algorithm) measurement.
type GradSyncPoint struct {
	// Ranks / ModelMB / Algo echo the configuration.
	Ranks   int
	ModelMB float64
	Algo    string
	// CollSteps / CollS are the algorithm's modeled AllReduce profile:
	// synchronized communication steps and total seconds per call.
	CollSteps int
	CollS     float64
	// ComputeS is the unjittered per-step compute time.
	ComputeS float64
	// StepMeanS is the measured mean training-step time (compute +
	// straggler wait + AllReduce + update).
	StepMeanS float64
	// CommFrac is the AllReduce's share of the mean step.
	CommFrac float64
	// SkewMeanS is the mean straggler wait at the gradient barrier.
	SkewMeanS float64
	// Steps is the completed step count per rank.
	Steps int64
}

// gradReady is one rank's gradients-ready event of a step: its time,
// the rank, and the rank's jittered compute.
type gradReady struct {
	t    float64
	rank int
	c    float64
}

// readyOrder orders a step's gradients-ready events as a des.Env
// executes them: by time, then by rank, the order they were queued in.
// Two computes can round to one ready time, so the key is the time, not
// the compute.
func readyOrder(a, b gradReady) int {
	switch {
	case a.t < b.t:
		return -1
	case a.t > b.t:
		return 1
	}
	return a.rank - b.rank
}

// RunGradSync computes one gradsync configuration's measurement. A
// rank computes (jittered), waits at the gradient barrier for the
// slowest rank, AllReduces and updates; the step ends at the same time
// on every rank. The samples are added in the order a sequential
// des.Env running one two-event machine per rank executes them, so its
// event budget trips at the same event, and a non-finite ModelMB is an
// error naming the field. Deterministic: equal configs give bit-equal
// points.
func RunGradSync(cfg GradSyncConfig) (GradSyncPoint, error) {
	cfg = cfg.withDefaults()
	if err := finite(knob{"ModelMB", cfg.ModelMB}); err != nil {
		return GradSyncPoint{}, fmt.Errorf("gradsync: %w", err)
	}
	params := costmodel.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	algoName := cfg.Algo
	if algoName == "" {
		algoName = params.CollAlgo
	}
	algo, err := mpi.ParseCollAlgo(algoName)
	if err != nil {
		return GradSyncPoint{}, fmt.Errorf("gradsync: %w", err)
	}

	// One rank per node of the dragonfly; the AllReduce cost comes from
	// the algorithm's step structure over the topology's hop classes.
	topo := cluster.AuroraTopology(cfg.Ranks)
	coll := costmodel.CollAllReduceCost(algo, topo, cfg.Ranks, cfg.ModelMB, nil)
	computeS := gradSyncComputeBaseS + gradSyncComputePerMBS*cfg.ModelMB
	updateS := gradSyncUpdatePerMBS * cfg.ModelMB

	// The Env this adds up executes every rank's start at t=0. Each step
	// it then executes every rank's gradients-ready event in readyOrder
	// and every rank's step end, all at one time.
	clock := serialClock{budget: cfg.MaxEvents}
	for range cfg.Ranks {
		clock.at(0)
	}
	ready := make([]gradReady, cfg.Ranks)
	var stepTime, skew stats.Welford
	start := 0.0
	for s := range cfg.Steps {
		gmax := 0.0
		for r := range ready {
			c := computeS * (1 + gradSyncJitterFrac*gradSyncJitter(r, s))
			ready[r] = gradReady{t: start + c, rank: r, c: c}
			if c > gmax {
				gmax = c
			}
		}
		slices.SortFunc(ready, readyOrder)
		for _, g := range ready {
			clock.at(g.t)
			skew.Add(gmax - g.c)
		}
		end := start + gmax + coll.TimeS + updateS
		for range cfg.Ranks {
			clock.at(end)
			stepTime.Add(end - start)
		}
		if clock.err != nil {
			return GradSyncPoint{}, fmt.Errorf("gradsync (%s, %g MB, %d ranks): %w",
				algo, cfg.ModelMB, cfg.Ranks, clock.err)
		}
		start = end
	}

	commFrac := 0.0
	if stepTime.Mean() > 0 {
		commFrac = coll.TimeS / stepTime.Mean()
	}
	return GradSyncPoint{
		Ranks: cfg.Ranks, ModelMB: cfg.ModelMB, Algo: algo.String(),
		CollSteps: coll.Steps, CollS: coll.TimeS,
		ComputeS: computeS, StepMeanS: stepTime.Mean(), CommFrac: commFrac,
		SkewMeanS: skew.Mean(), Steps: stepTime.N() / int64(cfg.Ranks),
	}, nil
}

// gradSyncTable renders one rank count's size × algorithm grid.
func gradSyncTable(ranks int, points []GradSyncPoint) scenario.Table {
	topo := cluster.AuroraTopology(ranks)
	t := scenario.Table{
		Title: fmt.Sprintf("gradsync — %d ranks on dragonfly %d groups × %d routers × %d nodes (training step vs AllReduce algorithm)",
			ranks, topo.Groups, topo.RoutersPerGroup, topo.NodesPerRouter),
		Columns: []scenario.Column{
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%9s", CellFmt: "%9.2f"},
			{Key: "algo", Head: "algo", HeadFmt: "%6s", CellFmt: "%6s"},
			{Key: "coll_steps", Head: "steps", HeadFmt: "%6s", CellFmt: "%6d"},
			{Key: "coll_ms", Head: "coll(ms)", HeadFmt: "%10s", CellFmt: "%10.4f"},
			{Key: "skew_ms", Head: "skew(ms)", HeadFmt: "%9s", CellFmt: "%9.4f"},
			{Key: "step_ms", Head: "step(ms)", HeadFmt: "%10s", CellFmt: "%10.4f"},
			{Key: "comm_frac", Head: "comm", HeadFmt: "%6s", CellFmt: "%6.3f"},
		},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []any{
			p.ModelMB, p.Algo, p.CollSteps, p.CollS * 1e3,
			p.SkewMeanS * 1e3, p.StepMeanS * 1e3, p.CommFrac,
		})
	}
	return t
}

// gradSyncCrossoverTable reduces the full sweep to the algorithm-
// choice answer: per (ranks, size), each real algorithm's AllReduce
// time, the winner, and the hierarchy's speedup over the ring (>1
// where topology awareness pays, <1 where the ring's bandwidth
// optimality does). The flat model is excluded — it is the legacy
// single-cost abstraction, not an executable algorithm.
func gradSyncCrossoverTable(points []GradSyncPoint) scenario.Table {
	t := scenario.Table{
		Title: "gradsync — algorithm crossover (best AllReduce per ranks × size)",
		Columns: []scenario.Column{
			{Key: "ranks", Head: "ranks", HeadFmt: "%6s", CellFmt: "%6d"},
			{Key: "size_mb", Head: "size(MB)", HeadFmt: "%9s", CellFmt: "%9.2f"},
			{Key: "ring_ms", Head: "ring(ms)", HeadFmt: "%10s", CellFmt: "%10.4f"},
			{Key: "tree_ms", Head: "tree(ms)", HeadFmt: "%10s", CellFmt: "%10.4f"},
			{Key: "hier_ms", Head: "hier(ms)", HeadFmt: "%10s", CellFmt: "%10.4f"},
			{Key: "best", Head: "best", HeadFmt: "%6s", CellFmt: "%6s"},
			{Key: "hier_vs_ring", Head: "hier-vs-ring", HeadFmt: "%13s", CellFmt: "%13.2f"},
		},
	}
	type cell struct{ ring, tree, hier float64 }
	cells := map[[2]float64]*cell{}
	for _, p := range points {
		key := [2]float64{float64(p.Ranks), p.ModelMB}
		c := cells[key]
		if c == nil {
			c = &cell{}
			cells[key] = c
		}
		switch p.Algo {
		case "ring":
			c.ring = p.CollS
		case "tree":
			c.tree = p.CollS
		case "hier":
			c.hier = p.CollS
		}
	}
	for _, ranks := range GradSyncRanks {
		for _, size := range GradSyncSizes {
			c := cells[[2]float64{float64(ranks), size}]
			if c == nil {
				continue
			}
			best, bestT := "ring", c.ring
			if c.tree < bestT {
				best, bestT = "tree", c.tree
			}
			if c.hier < bestT {
				best = "hier"
			}
			speedup := math.Inf(1)
			if c.hier > 0 {
				speedup = c.ring / c.hier
			}
			t.Rows = append(t.Rows, []any{
				ranks, size, c.ring * 1e3, c.tree * 1e3, c.hier * 1e3, best, speedup,
			})
		}
	}
	return t
}

// runGradSyncScenario is the registered scenario body: the size ×
// algorithm grid per rank count (Params.CollAlgo narrows the algorithm
// axis), plus the crossover table when the full axis ran.
func runGradSyncScenario(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
	algos := GradSyncAlgos
	if p.CollAlgo != "" {
		if _, err := mpi.ParseCollAlgo(p.CollAlgo); err != nil {
			return nil, err
		}
		algos = []string{p.CollAlgo}
	}
	res := &scenario.Result{Scenario: "gradsync", Params: p}
	var all []GradSyncPoint
	for _, ranks := range GradSyncRanks {
		points, fails, err := guardedGrid(ctx, p, fmt.Sprintf("gradsync/%d-ranks", ranks),
			GradSyncSizes, algos,
			func(size float64, algo string) (GradSyncPoint, error) {
				return RunGradSync(GradSyncConfig{
					Ranks: ranks, ModelMB: size, Algo: algo,
					Steps: p.SweepIters, MaxEvents: p.MaxEvents,
				})
			})
		if err != nil {
			return nil, err
		}
		res.Failures = append(res.Failures, fails...)
		res.Tables = append(res.Tables, gradSyncTable(ranks, points))
		all = append(all, points...)
	}
	if len(algos) == len(GradSyncAlgos) {
		res.Tables = append(res.Tables, gradSyncCrossoverTable(all))
	}
	return res, nil
}
