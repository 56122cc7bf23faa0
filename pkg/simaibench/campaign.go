package simaibench

import (
	"simaibench/internal/experiments"
	"simaibench/internal/loadgen"
	"simaibench/internal/schedule"
)

// Campaign API: the facility-scale scheduling layer behind the
// "campaign" scenario, exposed for programmatic use. A registered-
// scenario run goes through RunScenario:
//
//	res, _ := simaibench.RunScenario(ctx, "campaign",
//		simaibench.ScenarioParams{Jobs: 500, Rate: 1.2, Policy: "srpt"})
//	_ = simaibench.ReportResults(os.Stdout, "text", res)
//
// while single cells, custom job streams and custom class mixes use
// GenerateJobs and RunCampaignChecked directly.

// Job is one open-loop workload entry: arrival time, node width,
// service time, deadline, tenant and class.
type Job = loadgen.Job

// JobClass describes one workload class of the generator's mix: a
// selection weight plus size/service/deadline-slack samplers.
type JobClass = loadgen.Class

// LoadConfig parameterizes the open-loop load generator: seeded
// Poisson base rate with diurnal and bursty modulation over a weighted
// class mix. Each modulation axis draws from its own rng stream, so
// arrival timelines are invariant under class reweighting and
// attribute draws are invariant under rate changes.
type LoadConfig = loadgen.Config

// GenerateJobs produces the deterministic open-loop job stream for a
// LoadConfig, in arrival order.
func GenerateJobs(cfg LoadConfig) ([]Job, error) { return loadgen.Generate(cfg) }

// DefaultJobClasses returns the campaign's paper-shaped mix: frequent
// small table2-like jobs, mid-size scale-out jobs, and rare wide
// resilience-campaign jobs.
func DefaultJobClasses() []JobClass { return loadgen.DefaultClasses() }

// SchedulePolicy is a pluggable global scheduling discipline over the
// pending queue (FIFO, EDF, SRPT, Hermod-style hybrid).
type SchedulePolicy = schedule.Policy

// ParseSchedulePolicy converts a policy id ("fifo", "edf", "srpt",
// "hermod") to a SchedulePolicy.
func ParseSchedulePolicy(s string) (SchedulePolicy, error) { return schedule.ParsePolicy(s) }

// SchedulePolicyNames returns the built-in policy ids in canonical
// sweep order.
func SchedulePolicyNames() []string { return schedule.PolicyNames() }

// CampaignConfig drives one (load, policy) campaign cell: facility
// size, job count, offered-load multiple, policy id and crash profile.
type CampaignConfig = experiments.CampaignConfig

// CampaignPoint is one campaign measurement: queueing-delay
// percentiles, slowdown tails, utilization, Jain fairness and job
// outcome counts, plus the arrival-stream signature that pins the
// open-loop invariance contract.
type CampaignPoint = experiments.CampaignPoint

// RunCampaignChecked simulates one campaign cell; equal configs give
// bit-equal points. Malformed policy ids, degenerate generator configs
// and blown event budgets return errors.
func RunCampaignChecked(cfg CampaignConfig) (CampaignPoint, error) {
	return experiments.RunCampaignChecked(cfg)
}

// CampaignLoads is the default offered-load sweep of the campaign
// scenario (multiples of facility capacity).
func CampaignLoads() []float64 {
	return append([]float64(nil), experiments.CampaignLoads...)
}
