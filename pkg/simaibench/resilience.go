package simaibench

import (
	"simaibench/internal/cluster"
	"simaibench/internal/experiments"
	"simaibench/internal/faults"
)

// Resilience API: the fault-injection layer behind the "resilience"
// scenario, exposed for programmatic use. A registered-scenario run
// goes through RunScenario:
//
//	res, _ := simaibench.RunScenario(ctx, "resilience",
//		simaibench.ScenarioParams{SweepIters: 150, MTBF: 60, CkptInterval: 4})
//	_ = simaibench.ReportResults(os.Stdout, "text", res)
//
// while single points and custom disturbance profiles use
// RunResilienceChecked directly.

// FaultPolicy selects a recovery strategy: fail-stop or
// checkpoint/restart.
type FaultPolicy = faults.Policy

// The recovery policies of the resilience family.
const (
	// FailStop restarts lost work from scratch (no checkpoints).
	FailStop = faults.FailStop
	// CheckpointRestart resumes from the last durable checkpoint staged
	// through the datastore backend.
	CheckpointRestart = faults.CheckpointRestart
)

// ParseFaultPolicy converts a config string ("fail-stop",
// "checkpoint-restart") to a FaultPolicy.
func ParseFaultPolicy(s string) (FaultPolicy, error) { return faults.ParsePolicy(s) }

// FaultProfile describes the disturbance statistics of a campaign:
// seeded per-node crash MTBF and repair time, straggler episodes and
// transient datastore outages. The zero value injects nothing.
type FaultProfile = faults.Profile

// FaultRecovery is a resolved recovery configuration: the policy plus
// checkpoint cadence/size and the straggler re-dispatch switch.
// ResilienceConfig.Recovery derives one from a config (the policy is
// CheckpointRestart exactly when a checkpoint cadence is set).
type FaultRecovery = faults.Recovery

// NodeSet tracks per-node up/down availability with deterministic
// replacement selection — the cluster-side state of the fault layer.
type NodeSet = cluster.NodeSet

// NewNodeSet returns the availability state for a cluster spec, all
// nodes up.
func NewNodeSet(s ClusterSpec) *NodeSet { return cluster.NewNodeSet(s) }

// ResilienceConfig drives one disturbance measurement: the scale-out
// workload plus a fault profile (MTBF, stragglers, outages) and a
// recovery policy (checkpoint cadence and size, straggler
// re-dispatch).
type ResilienceConfig = experiments.ResilienceConfig

// ResiliencePoint is one (MTBF, checkpoint-interval, backend)
// measurement: the scale-out staging observables plus crash counts,
// wasted-work and checkpoint-overhead fractions, and the effective
// (waste-discounted) throughput.
type ResiliencePoint = experiments.ResiliencePoint

// RunResilienceChecked simulates one disturbance configuration and
// returns its measurement. Deterministic: equal configs give bit-equal
// points, and the crash timeline is invariant under recovery-policy
// changes, so cadence sweeps compare policies against identical
// disturbances. With a healthy profile the staging observables are
// bit-identical to the equivalent RunScaleOutChecked call. A zero or
// negative field takes its default (or leaves its feature off); a NaN or
// infinite one — but for MTBFS, where infinite is never — is an error
// naming it. With cfg.MaxEvents set, a runaway simulation aborts with a
// structured BudgetExceeded error instead of looping forever.
func RunResilienceChecked(cfg ResilienceConfig) (ResiliencePoint, error) {
	return experiments.RunResilienceChecked(cfg)
}
