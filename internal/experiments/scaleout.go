package experiments

import (
	"context"
	"fmt"

	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// Scale-out family: multi-tenant cluster contention. Every scenario the
// paper ships runs a single workflow against a dedicated deployment;
// real clusters co-schedule many AI-HPC workflows on shared Redis /
// Dragon / Lustre infrastructure. Here N tenants each run the co-located
// one-to-one workflow on their own nodes (the cluster scales out with
// tenant count, each tenant a dedicated block of it), but all staging
// traffic goes through ONE shared backend deployment (the rows of
// shared costmodel.XferTables, NewXferTable with shared set): Redis
// shards and the Dragon managers serialize on their service slots, the
// Lustre MDS absorbs every tenant's metadata ops, and per-node tmpfs
// scales for free. The reported observables are per-tenant slowdown
// (mean staging latency vs the 1-tenant baseline) and the shared
// backend's queueing delay — the throughput-collapse curves that invert
// the paper's single-tenant transport rankings.
//
// The workload is Pattern 1's on a bigger partition with the deployment
// shared: the same ranks, the same harness (runColocated, colocated.go).

// ScaleOutConfig drives one multi-tenant measurement: N concurrent
// one-to-one workflow instances against a shared backend deployment.
type ScaleOutConfig struct {
	// Tenants is the number of co-scheduled workflow instances.
	Tenants int
	// NodesPerTenant sizes each tenant's dedicated node block (2).
	NodesPerTenant int
	Backend        datastore.Backend
	SizeMB         float64
	// SimIterS / TrainIterS: emulated iteration times (same profile as
	// Pattern 1).
	SimIterS   float64
	TrainIterS float64
	// WritePeriod / ReadPeriod in iterations. The multi-tenant study
	// stages every 10 solver iterations (vs Pattern 1's 100): contention
	// is a load phenomenon, and the aggressive cadence is what a heavily
	// trafficked shared cluster sees.
	WritePeriod int
	ReadPeriod  int
	// TrainIters: training iterations to simulate per tenant.
	TrainIters int
	// MaxEvents caps the DES events the run may execute (0 = unlimited);
	// RunScaleOutChecked surfaces the budget trip as an error.
	MaxEvents int64
	// Deprecated: ignored — a cell runs fastest on one Env; kept until
	// the benchmark stops setting it.
	Workers int
	// Params overrides the cost-model constants (zero value = Default).
	Params *costmodel.Params
}

// withDefaults fills unset (zero or negative) fields with the scale-out
// defaults. NaN and ±Inf stay where they are for RunScaleOutChecked to
// reject.
func (c ScaleOutConfig) withDefaults() ScaleOutConfig {
	positiveOr(&c.Tenants, 1)
	positiveOr(&c.NodesPerTenant, 2)
	positiveOr(&c.SizeMB, 8)
	positiveOr(&c.SimIterS, solverIterS)
	positiveOr(&c.TrainIterS, trainerIterS)
	positiveOr(&c.WritePeriod, 10)
	positiveOr(&c.ReadPeriod, 10)
	positiveOr(&c.TrainIters, 300)
	return c
}

// ScaleOutPoint is one (tenants, backend, size) measurement.
type ScaleOutPoint struct {
	Tenants int
	Backend datastore.Backend
	SizeMB  float64
	// WriteGBps / ReadGBps: per-process staging throughput, averaged
	// over every rank of every tenant (the Fig 3 metric under load).
	WriteGBps float64
	ReadGBps  float64
	// StageMeanS / StageP50S: mean and median end-to-end write staging
	// latency (queueing included).
	StageMeanS float64
	StageP50S  float64
	// SharedWaitS: mean queueing delay at the backend's shared
	// serialization point (service slots or Lustre MDS); 0 for
	// node-local.
	SharedWaitS float64
	// AggGBps: aggregate staged-write throughput across all tenants —
	// the backend's delivered throughput, whose flattening under rising
	// tenant count is the collapse curve.
	AggGBps float64
	// Writes: completed staged writes across all tenants.
	Writes int64
}

// RunScaleOutChecked simulates cfg.Tenants concurrent one-to-one
// workflows on dedicated blocks of cfg.NodesPerTenant nodes (block i is
// nodes i·NodesPerTenant onward, as cluster.CoSchedule packs them), all
// staging through one shared deployment of cfg.Backend (runColocated). A
// NaN or infinite field is an error naming it; with cfg.MaxEvents set, a
// runaway simulation aborts with the structured des.BudgetExceeded error.
func RunScaleOutChecked(cfg ScaleOutConfig) (ScaleOutPoint, error) {
	cfg = cfg.withDefaults()
	run, err := runColocated(cfg, true, nil)
	if err != nil {
		return ScaleOutPoint{}, fmt.Errorf("scale-out (%s, %g MB, %d tenants): %w",
			cfg.Backend, cfg.SizeMB, cfg.Tenants, err)
	}
	return ScaleOutPoint{
		Tenants:     cfg.Tenants,
		Backend:     cfg.Backend,
		SizeMB:      cfg.SizeMB,
		WriteGBps:   run.writeTput.MeanGBps(),
		ReadGBps:    run.readTput.MeanGBps(),
		StageMeanS:  run.writeTime.Mean(),
		StageP50S:   stats.QuantileInPlace(run.samples, 0.5),
		SharedWaitS: run.model.SharedWaitS(cfg.Backend),
		AggGBps:     run.aggGBps(),
		Writes:      run.writeTime.N(),
	}, nil
}

// ScaleOutTenantCounts is the default tenant sweep (doubling up to 16).
var ScaleOutTenantCounts = []int{1, 2, 4, 8, 16}

// ScaleOutSizes are the per-snapshot sizes of the scale-out grid: one
// comfortably inside every backend's service capacity, one that pushes
// the shared deployments into queueing.
var ScaleOutSizes = []float64{2, 8}

// scaleOutTenants truncates the tenant sweep to maxTenants (<=0: all).
func scaleOutTenants(maxTenants int) []int {
	if maxTenants <= 0 {
		return ScaleOutTenantCounts
	}
	out := []int{}
	for _, n := range ScaleOutTenantCounts {
		if n <= maxTenants {
			out = append(out, n)
		}
	}
	return out
}

// scaleOutGrid runs the tenants × size grid for one backend (tenant
// counts doubling up to p.Tenants), fanning cells across the worker
// pool; each cell is an isolated deterministic simulation.
func scaleOutGrid(ctx context.Context, p scenario.Params, b datastore.Backend) ([]ScaleOutPoint, []scenario.CellFailure, error) {
	return guardedGrid(ctx, p, "scale-out/"+b.String(), scaleOutTenants(p.Tenants), ScaleOutSizes,
		func(tenants int, size float64) (ScaleOutPoint, error) {
			return RunScaleOutChecked(ScaleOutConfig{
				Tenants: tenants, Backend: b, SizeMB: size,
				TrainIters: p.SweepIters, MaxEvents: p.MaxEvents,
			})
		})
}

// scaleOutTable structures one backend's collapse curve: per-tenant
// slowdown is each row's mean staging latency over the 1-tenant baseline
// at the same size.
func scaleOutTable(b datastore.Backend, points []ScaleOutPoint) scenario.Table {
	t := scenario.NewTable(fmt.Sprintf("Scale-out — %s: multi-tenant contention on one shared deployment", b), len(points), []scenario.Column{
		{Key: "tenants", Head: "tenants", HeadFmt: "%8s", CellFmt: "%8d"},
		{Key: "size_mb", Head: "size(MB)", HeadFmt: "%10s", CellFmt: "%10.2f"},
		{Key: "write_gbps", Head: "write(GB/s)", HeadFmt: "%12s", CellFmt: "%12.3f"},
		{Key: "read_gbps", Head: "read(GB/s)", HeadFmt: "%12s", CellFmt: "%12.3f"},
		{Key: "stage_p50_s", Head: "p50-stage(s)", HeadFmt: "%13s", CellFmt: "%13.5f"},
		{Key: "shared_wait_s", Head: "queue-wait(s)", HeadFmt: "%14s", CellFmt: "%14.5f"},
		{Key: "agg_gbps", Head: "agg(GB/s)", HeadFmt: "%10s", CellFmt: "%10.3f"},
		{Key: "slowdown", Head: "slowdown", HeadFmt: "%9s", CellFmt: "%9.2f"},
	})
	// 1-tenant baselines by size, for the slowdown column.
	base := map[float64]float64{}
	for _, pt := range points {
		if pt.Tenants == 1 {
			base[pt.SizeMB] = pt.StageMeanS
		}
	}
	for _, pt := range points {
		slowdown := 0.0
		if b, ok := base[pt.SizeMB]; ok && b > 0 {
			slowdown = pt.StageMeanS / b
		}
		t.AddRow(scenario.I(pt.Tenants), scenario.F(pt.SizeMB), scenario.F(pt.WriteGBps), scenario.F(pt.ReadGBps),
			scenario.F(pt.StageP50S), scenario.F(pt.SharedWaitS), scenario.F(pt.AggGBps), scenario.F(slowdown))
	}
	return t
}

// runScaleOutScenario is the registered "scale-out" scenario: the
// tenants × size grid for all four backends, one collapse-curve table
// per backend. Each grid runs under the run guardrails: failed cells
// become Result.Failures while the completed points still render.
func runScaleOutScenario(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "scale-out", Params: p}
	for _, b := range datastore.Backends() {
		points, fails, err := scaleOutGrid(ctx, p, b)
		if err != nil {
			return nil, err
		}
		res.Failures = append(res.Failures, fails...)
		res.Tables = append(res.Tables, scaleOutTable(b, points))
	}
	return res, nil
}
