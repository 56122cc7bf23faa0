package experiments

import (
	"context"
	"fmt"
	"math"

	"simaibench/internal/cluster"
	"simaibench/internal/faults"
	"simaibench/internal/loadgen"
	"simaibench/internal/scenario"
	"simaibench/internal/schedule"
)

// Campaign family: the facility-scale scheduling study. Every other
// scenario simulates the *inside* of one (or N co-scheduled) workflow
// runs; the campaign simulates the machine room around them — an
// open-loop stream of workflow-shaped jobs (internal/loadgen: Poisson
// base rate with diurnal and bursty modulation, three job classes
// echoing the table2-, scale-out- and resilience-sized workflows)
// arriving at a shared facility whose global scheduler
// (internal/schedule) places each job on a free block of nodes under a
// pluggable policy. The sweep axes are offered load × policy, run once
// healthy and once under the crash/repair profile of internal/faults;
// the observables are queueing-delay percentiles, slowdown tails,
// delivered facility utilization and the Jain fairness index over
// per-tenant slowdowns.
//
// The determinism contract extends PR 5's stream discipline across the
// whole stack: arrival timelines depend only on (seed, rate, modulation),
// never on the policy under test — each point carries the arrival-stream
// signature so the invariance is checkable — and the crash timeline is
// policy-invariant too, so every policy is judged against identical
// offered work and identical disturbances.

// CampaignConfig drives one (load, policy) campaign cell.
type CampaignConfig struct {
	// Nodes sizes the facility (64).
	Nodes int
	// Jobs is the open-loop job count (2000).
	Jobs int
	// Tenants spreads jobs across fairness-tracked tenants (8).
	Tenants int
	// Load is the offered load as a multiple of facility capacity
	// (λ·E[node-seconds]/Nodes; 0.7 default). Values above 1 are a
	// transient-overload study: the queue grows until the arrival
	// stream ends.
	Load float64
	// Policy is the schedule policy id (fifo/edf/srpt/hermod).
	Policy string
	// Seed roots both the arrival streams and the fault streams.
	Seed int64
	// MTBFS / RepairS configure the crash profile (0 MTBF = healthy).
	MTBFS   float64
	RepairS float64
	// MaxEvents caps the DES events of the run (0 = unlimited).
	MaxEvents int64
}

// withDefaults fills unset fields with the campaign defaults.
func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 2000
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.Load <= 0 {
		c.Load = 0.7
	}
	if c.Policy == "" {
		c.Policy = "fifo"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RepairS <= 0 {
		c.RepairS = 120
	}
	return c
}

// loadgenConfig derives the open-loop generator configuration: the
// paper-shaped class mix with mild diurnal and bursty modulation, rate
// solved from the offered-load multiple.
func (c CampaignConfig) loadgenConfig() loadgen.Config {
	lg := loadgen.Config{
		Seed:           c.Seed,
		Jobs:           c.Jobs,
		Tenants:        c.Tenants,
		DiurnalAmp:     0.3,
		DiurnalPeriodS: 3600,
		BurstFactor:    2,
		BurstMTBS:      1800,
		BurstDurS:      300,
		Classes:        loadgen.DefaultClasses(),
	}
	lg.RatePerS = lg.RateForLoad(c.Load, c.Nodes)
	return lg
}

// CampaignPoint is one (load, policy) measurement.
type CampaignPoint struct {
	Load   float64
	Policy string
	// RatePerS is the solved arrival rate (jobs/s).
	RatePerS float64
	// ArrivalSig is the FNV digest of the arrival timeline; equal
	// across every policy at the same (seed, load) — the open-loop
	// invariance contract.
	ArrivalSig uint64
	// WaitP50S / WaitP99S / WaitP999S are queueing-delay percentiles.
	WaitP50S, WaitP99S, WaitP999S float64
	// SlowP50 / SlowP99 are slowdown percentiles ((completion −
	// arrival)/service).
	SlowP50, SlowP99 float64
	// Util is delivered facility utilization over the makespan.
	Util float64
	// Fairness is Jain's index over per-tenant mean slowdowns.
	Fairness float64
	// Completed / Dropped / Restarts / Crashes count job outcomes and
	// injected node crashes.
	Completed, Dropped, Restarts, Crashes int
	// MakespanS is the virtual time of the last completion.
	MakespanS float64
}

// RunCampaignChecked simulates one campaign cell. Deterministic: equal
// configs give bit-equal points. A malformed policy id, a degenerate
// generator config or a blown event budget surface as errors.
func RunCampaignChecked(cfg CampaignConfig) (CampaignPoint, error) {
	cfg = cfg.withDefaults()
	fail := func(err error) (CampaignPoint, error) {
		return CampaignPoint{}, fmt.Errorf("campaign (load %g, %s): %w", cfg.Load, cfg.Policy, err)
	}
	pol, err := schedule.ParsePolicy(cfg.Policy)
	if err != nil {
		return fail(err)
	}
	jobs, err := loadgen.Generate(cfg.loadgenConfig())
	if err != nil {
		return fail(err)
	}
	env := newGuardedEnv(cfg.MaxEvents)
	s, err := schedule.New(env, cluster.Aurora(cfg.Nodes), schedule.Config{
		Policy:     pol,
		Faults:     faults.Profile{Seed: cfg.Seed, MTBFS: cfg.MTBFS, RepairS: cfg.RepairS},
		OnComplete: env.Stop,
	})
	if err != nil {
		return fail(err)
	}
	if err := s.Submit(jobs); err != nil {
		return fail(err)
	}
	env.Run()
	if err := env.Err(); err != nil {
		return fail(err)
	}
	if !s.Done() {
		return fail(fmt.Errorf("run drained with %d jobs still pending", s.QueueLen()))
	}
	m := s.Metrics()
	return CampaignPoint{
		Load:       cfg.Load,
		Policy:     cfg.Policy,
		RatePerS:   cfg.loadgenConfig().RatePerS,
		ArrivalSig: loadgen.Signature(jobs),
		WaitP50S:   orZero(m.Wait.P50()),
		WaitP99S:   orZero(m.Wait.P99()),
		WaitP999S:  orZero(m.Wait.P999()),
		SlowP50:    orZero(m.Slowdown.P50()),
		SlowP99:    orZero(m.Slowdown.P99()),
		Util:       m.Utilization(cfg.Nodes),
		Fairness:   m.JainFairness(),
		Completed:  m.Completed,
		Dropped:    m.Dropped,
		Restarts:   m.Restarts,
		Crashes:    s.Injector().Crashes(),
		MakespanS:  m.LastCompletionS,
	}, nil
}

// orZero maps the empty-digest NaN to 0 so the JSON reporter never
// sees an unencodable value (a cell where every job was dropped).
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// CampaignLoads is the default offered-load sweep: half loaded,
// moderately loaded, near saturation, and 20% transient overload —
// the regime where the policies separate.
var CampaignLoads = []float64{0.5, 0.7, 0.9, 1.2}

// CampaignFaultyMTBFS is the per-node MTBF of the campaign's faulty
// table: a few dozen crashes over a default-length campaign.
const CampaignFaultyMTBFS = 20000

// campaignLoads / campaignPolicies derive the sweep axes from Params:
// -rate / -policy narrow the grid to one cell each.
func campaignLoads(rate float64) []float64 {
	if rate > 0 {
		return []float64{rate}
	}
	return CampaignLoads
}

func campaignPolicies(policy string) []string {
	if policy != "" {
		return []string{policy}
	}
	return schedule.PolicyNames()
}

// campaignTable structures one fault profile's load × policy grid.
func campaignTable(label string, points []CampaignPoint) scenario.Table {
	t := scenario.Table{
		Title: fmt.Sprintf("Campaign — %s: queueing and fairness under offered load × scheduling policy", label),
		Columns: []scenario.Column{
			{Key: "load", Head: "load", HeadFmt: "%5s", CellFmt: "%5.2f"},
			{Key: "policy", Head: "policy", HeadFmt: "%-7s", CellFmt: "%-7s"},
			{Key: "wait_p50_s", Head: "p50-wait(s)", HeadFmt: "%12s", CellFmt: "%12.1f"},
			{Key: "wait_p99_s", Head: "p99-wait(s)", HeadFmt: "%12s", CellFmt: "%12.1f"},
			{Key: "wait_p999_s", Head: "p999-wait(s)", HeadFmt: "%13s", CellFmt: "%13.1f"},
			{Key: "slow_p99", Head: "p99-slow", HeadFmt: "%9s", CellFmt: "%9.2f"},
			{Key: "util", Head: "util", HeadFmt: "%6s", CellFmt: "%6.3f"},
			{Key: "fairness", Head: "jain", HeadFmt: "%6s", CellFmt: "%6.3f"},
			{Key: "dropped", Head: "dropped", HeadFmt: "%8s", CellFmt: "%8d"},
			{Key: "crashes", Head: "crashes", HeadFmt: "%8s", CellFmt: "%8d"},
		},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []any{pt.Load, pt.Policy, pt.WaitP50S, pt.WaitP99S,
			pt.WaitP999S, pt.SlowP99, pt.Util, pt.Fairness, pt.Dropped, pt.Crashes})
	}
	return t
}

// runCampaignScenario is the registered "campaign" scenario: the
// offered-load × policy grid, once healthy and once under the crash
// profile. Each grid runs under the run guardrails: failed cells
// become Result.Failures while the completed points still render.
func runCampaignScenario(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "campaign", Params: p}
	loads := campaignLoads(p.Rate)
	policies := campaignPolicies(p.Policy)
	for _, prof := range []struct {
		label string
		mtbfS float64
	}{
		{"healthy", 0},
		{"faulty", CampaignFaultyMTBFS},
	} {
		points, fails, err := guardedGrid(ctx, p, "campaign/"+prof.label, loads, policies,
			func(load float64, pol string) (CampaignPoint, error) {
				return RunCampaignChecked(CampaignConfig{
					Load: load, Policy: pol, Jobs: p.Jobs, Tenants: p.Tenants,
					MTBFS: prof.mtbfS, MaxEvents: p.MaxEvents,
				})
			})
		if err != nil {
			return nil, err
		}
		res.Failures = append(res.Failures, fails...)
		res.Tables = append(res.Tables, campaignTable(prof.label, points))
	}
	return res, nil
}
