package simaibench

import (
	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/experiments"
)

// Multi-tenant scale-out API: the contention layer behind the
// "scale-out" scenario, exposed for programmatic use. A registered-
// scenario run goes through RunScenario:
//
//	res, _ := simaibench.RunScenario(ctx, "scale-out",
//		simaibench.ScenarioParams{SweepIters: 120, Tenants: 4})
//	_ = simaibench.ReportResults(os.Stdout, "text", res)
//
// while single points and custom grids use RunScaleOutChecked directly
// (see examples/multi-tenant).

// ClusterSpec describes a homogeneous simulated cluster partition.
type ClusterSpec = cluster.Spec

// Aurora returns the paper's testbed spec scaled to the given node
// count.
func Aurora(nodes int) ClusterSpec { return cluster.Aurora(nodes) }

// Tenant is one co-scheduled workflow instance: an id plus the node
// indices it is placed on.
type Tenant = cluster.Tenant

// CoSchedule places n concurrent workflow instances of nodesPer nodes
// each onto the partition, round-robin; with insufficient nodes the
// placement wraps and tenants share nodes (oversubscription).
func CoSchedule(s ClusterSpec, n, nodesPer int) ([]Tenant, error) {
	return cluster.CoSchedule(s, n, nodesPer)
}

// Oversubscription reports the mean tenant placements per occupied node
// of a CoSchedule result: 1.0 for dedicated blocks, above 1 when
// tenants share nodes.
func Oversubscription(s ClusterSpec, tenants []Tenant) float64 {
	return cluster.Oversubscription(s, tenants)
}

// SharedDeployment reports whether a deployment of backend b is shared
// infrastructure that serializes concurrent tenants (Redis, Dragon,
// FileSystem) or per-node storage that scales with them (NodeLocal).
func SharedDeployment(b Backend) bool { return datastore.SharedDeployment(b) }

// ScaleOutConfig drives one multi-tenant measurement: N concurrent
// one-to-one workflows staging through a single shared deployment.
type ScaleOutConfig = experiments.ScaleOutConfig

// ScaleOutPoint is one (tenants, backend, size) measurement: per-process
// throughput, staging-latency mean/p50, shared-queue delay and the
// aggregate (collapse-curve) throughput.
type ScaleOutPoint = experiments.ScaleOutPoint

// RunScaleOutChecked simulates one multi-tenant configuration and
// returns its measurement. Deterministic: equal configs give bit-equal
// points. A zero or negative field takes its default; a NaN or infinite
// one is an error naming it. With cfg.MaxEvents set, a runaway simulation
// aborts with a structured BudgetExceeded error instead of looping
// forever.
func RunScaleOutChecked(cfg ScaleOutConfig) (ScaleOutPoint, error) {
	return experiments.RunScaleOutChecked(cfg)
}
