package simaibench

import (
	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/experiments"
	"simaibench/internal/mpi"
)

// Gradient-synchronization API: the collective-algorithm and dragonfly-
// topology layer behind the "gradsync" scenario, exposed for
// programmatic use. A registered-scenario run goes through RunScenario:
//
//	res, _ := simaibench.RunScenario(ctx, "gradsync",
//		simaibench.ScenarioParams{SweepIters: 120, CollAlgo: "hier"})
//	_ = simaibench.ReportResults(os.Stdout, "text", res)
//
// while single points and custom grids use RunGradSync directly, and
// AllReduceCost prices a collective without simulating anything.
//
// Parallelism inside one cell: a simulated cell runs on one sequential
// event loop — measured fastest for every fig3/fig4/scale-out point up
// to 4096 nodes — and sweeps fan whole cells across cores. The one
// harness that also fans out inside a cell is gradsync, whose dragonfly
// groups share nothing during a run: ScenarioParams.Workers sets how
// many cores advance them. Metrics are bit-identical at every setting —
// Workers only trades wall-clock.

// Topology is an explicit dragonfly interconnect: group/router/node
// shape plus per-hop-class link bandwidth and latency.
type Topology = cluster.Topology

// AuroraTopology returns the paper's Slingshot-like dragonfly sized to
// hold the given node count, the interconnect behind Aurora(nodes).
func AuroraTopology(nodes int) Topology { return cluster.AuroraTopology(nodes) }

// CollAlgo identifies one modeled collective algorithm: AlgoFlat (the
// legacy single-cost rendezvous), AlgoRing, AlgoTree or AlgoHier.
type CollAlgo = mpi.CollAlgo

// Collective algorithm identifiers, re-exported from the mpi layer.
const (
	AlgoFlat = mpi.AlgoFlat
	AlgoRing = mpi.AlgoRing
	AlgoTree = mpi.AlgoTree
	AlgoHier = mpi.AlgoHier
)

// ParseCollAlgo resolves an algorithm name ("flat", "ring", "tree",
// "hier"; empty = flat) to its identifier, erroring on unknown names.
func ParseCollAlgo(s string) (CollAlgo, error) { return mpi.ParseCollAlgo(s) }

// CollCost is one collective's modeled cost profile: synchronized
// communication steps and total seconds per call.
type CollCost = mpi.CollCost

// AllReduceCost prices one n-rank AllReduce of mb megabytes under an
// algorithm over a dragonfly topology (rankNode nil = rank i on
// node i) — the analytic model behind every gradsync point.
func AllReduceCost(algo CollAlgo, topo Topology, n int, mb float64, rankNode []int) CollCost {
	return costmodel.CollAllReduceCost(algo, topo, n, mb, rankNode)
}

// GradSyncConfig drives one gradient-synchronization measurement:
// Ranks data-parallel trainers AllReducing a ModelMB gradient with the
// Algo collective every training step.
type GradSyncConfig = experiments.GradSyncConfig

// GradSyncPoint is one (ranks, size, algorithm) measurement: the
// collective's cost profile, mean step time, communication fraction
// and straggler skew.
type GradSyncPoint = experiments.GradSyncPoint

// RunGradSync simulates one gradient-synchronization configuration and
// returns its measurement. Deterministic: equal configs give bit-equal
// points at any Workers setting; with cfg.MaxEvents set, a runaway
// simulation aborts with a structured budget error.
func RunGradSync(cfg GradSyncConfig) (GradSyncPoint, error) {
	return experiments.RunGradSync(cfg)
}
