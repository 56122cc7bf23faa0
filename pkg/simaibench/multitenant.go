package simaibench

import (
	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/experiments"
)

// Multi-tenant scale-out API: the contention layer behind the
// "scale-out" scenario (RunScenario runs that one), for single points
// and custom grids — see examples/multi-tenant.

// Aurora returns the paper's testbed spec — a homogeneous simulated
// cluster partition — scaled to the given node count.
func Aurora(nodes int) cluster.Spec { return cluster.Aurora(nodes) }

// CoSchedule places n concurrent workflow instances (tenants: an id
// plus the node indices it is placed on) of nodesPer nodes each onto the
// partition, round-robin; with insufficient nodes the placement wraps
// and tenants share nodes (oversubscription).
func CoSchedule(s cluster.Spec, n, nodesPer int) ([]cluster.Tenant, error) {
	return cluster.CoSchedule(s, n, nodesPer)
}

// Oversubscription reports the mean tenant placements per occupied node
// of a CoSchedule result: 1.0 for dedicated blocks, above 1 when
// tenants share nodes.
func Oversubscription(s cluster.Spec, tenants []cluster.Tenant) float64 {
	return cluster.Oversubscription(s, tenants)
}

// SharedDeployment reports whether a deployment of backend b is shared
// infrastructure that serializes concurrent tenants (Redis, Dragon,
// FileSystem) or per-node storage that scales with them (NodeLocal).
func SharedDeployment(b Backend) bool { return datastore.SharedDeployment(b) }

// ScaleOutConfig drives one multi-tenant measurement: N concurrent
// one-to-one workflows staging through a single shared deployment.
type ScaleOutConfig = experiments.ScaleOutConfig

// RunScaleOutChecked simulates one multi-tenant configuration and
// returns its measurement: per-process throughput, staging-latency
// mean/p50, shared-queue delay and the aggregate (collapse-curve)
// throughput. Deterministic: equal configs give bit-equal points. A
// zero or negative field takes its default; a NaN or infinite one is an
// error naming it. With cfg.MaxEvents set, a runaway simulation aborts
// with a structured budget error instead of looping forever.
func RunScaleOutChecked(cfg ScaleOutConfig) (experiments.ScaleOutPoint, error) {
	return experiments.RunScaleOutChecked(cfg)
}
