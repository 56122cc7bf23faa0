package experiments

import (
	"context"
	"fmt"
	"math"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// Resilience family: the scale-out campaign under disturbance. Every
// other scenario assumes a perfectly healthy cluster; here the same N
// co-scheduled one-to-one workflows run while a seeded fault injector
// (internal/faults) crashes nodes, and a recovery policy — fail-stop or
// checkpoint/restart through the same backend deployment the snapshots
// stage through — decides how much work each disturbance costs. The
// sweep axes are MTBF × checkpoint interval × backend; the observables
// are the wasted-work fraction, the checkpoint-overhead fraction and
// the effective (delivered) throughput, plus an optimal-checkpoint-
// interval table comparing the empirical best cadence against Young's
// √(2·δ·MTBF) approximation.
//
// The ranks are the staging ranks of flat.go, each carrying a fault layer
// (rankFaults): a cancellable wake-up (des.Hold), an epoch counter that
// discards a transfer whose node died mid-flight, and — on solver ranks —
// abortable checkpoints (costmodel.CheckpointOp over cancellable
// des.Grants), restore and waste accounting.
// With a healthy profile (MTBF=∞, checkpointing off) the layer is silent:
// a Hold arms at the time and sequence position of the schedule call it
// replaces, so the run is bit-identical to the equivalent scale-out run,
// which attaches no layer (TestResilienceHealthyMatchesScaleOut).

// ResilienceConfig drives one disturbance measurement: the scale-out
// workload of ScaleOutConfig plus a fault profile and recovery policy.
type ResilienceConfig struct {
	// Tenants / NodesPerTenant: the co-scheduled workload, as in
	// ScaleOutConfig (defaults 4 × 2).
	Tenants        int
	NodesPerTenant int
	Backend        datastore.Backend
	SizeMB         float64
	// SimIterS / TrainIterS / WritePeriod / ReadPeriod / TrainIters:
	// iteration profile, as in ScaleOutConfig.
	SimIterS    float64
	TrainIterS  float64
	WritePeriod int
	ReadPeriod  int
	TrainIters  int
	// Seed roots the fault injector's disturbance streams.
	Seed int64
	// MTBFS is the per-node mean time between crashes; 0 or +Inf
	// disables crashes (the healthy baseline).
	MTBFS float64
	// RepairS is the node reboot time after a crash (1 s).
	RepairS float64
	// CkptIntervalS is the checkpoint cadence per sim rank; <= 0
	// disables checkpointing (fail-stop recovery).
	CkptIntervalS float64
	// CkptSizeMB sizes one checkpoint write/read (8 MB).
	CkptSizeMB float64
	// MaxEvents caps the DES events the run may execute (0 = unlimited);
	// RunResilienceChecked surfaces the budget trip as an error.
	MaxEvents int64
	// Params overrides the cost-model constants (zero value = Default).
	Params *costmodel.Params
}

// withDefaults fills unset (zero or negative) fields with the resilience
// defaults; the workload knobs share ScaleOutConfig's rule. NaN and ±Inf
// stay where they are for RunResilienceChecked to reject.
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	positiveOr(&c.Tenants, 4)
	positiveOr(&c.NodesPerTenant, 2)
	positiveOr(&c.SizeMB, 8)
	positiveOr(&c.SimIterS, 0.0325)
	positiveOr(&c.TrainIterS, 0.0633)
	positiveOr(&c.WritePeriod, 10)
	positiveOr(&c.ReadPeriod, 10)
	positiveOr(&c.TrainIters, 600)
	if c.Seed == 0 {
		c.Seed = 1
	}
	positiveOr(&c.RepairS, 1)
	positiveOr(&c.CkptIntervalS, 0) // off has one spelling in the point
	positiveOr(&c.CkptSizeMB, 8)
	return c
}

// Recovery derives the faults.Recovery this config selects: the policy
// is CheckpointRestart exactly when a checkpoint cadence is set,
// fail-stop otherwise.
func (c ResilienceConfig) Recovery() faults.Recovery {
	rec := faults.Recovery{CkptIntervalS: c.CkptIntervalS, CkptSizeMB: c.CkptSizeMB}
	if c.CkptIntervalS > 0 {
		rec.Policy = faults.CheckpointRestart
	}
	return rec
}

// ResiliencePoint is one (mtbf, ckpt-interval, backend) measurement.
// The staging fields (WriteGBps … Writes) carry the exact semantics of
// ScaleOutPoint, and with a healthy profile their values are
// bit-identical to the equivalent scale-out run.
type ResiliencePoint struct {
	Tenants       int
	Backend       datastore.Backend
	SizeMB        float64
	MTBFS         float64 // +Inf = never
	CkptIntervalS float64 // 0 = fail-stop
	WriteGBps     float64
	ReadGBps      float64
	StageMeanS    float64
	StageP50S     float64
	SharedWaitS   float64
	AggGBps       float64
	Writes        int64
	// Crashes is the number of node crashes injected.
	Crashes int
	// WastedS is the total virtual compute-seconds lost to crashes
	// (work since each victim rank's last durable commit), summed over
	// sim ranks; WastedFrac normalizes by sim-rank × horizon seconds.
	WastedS    float64
	WastedFrac float64
	// CkptWrites / CkptTotalS count completed checkpoint writes and
	// their cumulative duration; CkptFrac normalizes like WastedFrac.
	CkptWrites int64
	CkptTotalS float64
	CkptFrac   float64
	// EffGBps is the effective throughput: the delivered aggregate
	// staging throughput discounted by the fraction of compute whose
	// results were lost — AggGBps × (1 − WastedFrac). This is the
	// quantity the optimal-checkpoint-interval selection maximizes:
	// fail-stop pays full waste, aggressive cadences pay checkpoint
	// contention on the shared deployment.
	EffGBps float64
}

// faultState is the per-run state every fault layer shares: the
// injector, the handles a solver rank builds its checkpoint operations
// from, and the recovery accumulators.
type faultState struct {
	inj     *faults.Injector
	model   *costmodel.Model
	rec     faults.Recovery
	backend datastore.Backend
	horizon float64
	// solvers / trainers map node index -> the layers of the resident
	// ranks.
	solvers    [][]*rankFaults
	trainers   [][]*rankFaults
	wasted     float64 // compute lost to crashes
	ckptWrites int64   // completed checkpoint writes, and their duration
	ckptTotalS float64
}

// newFaultState builds the layer state of one run and starts its
// injector, whose hooks reach the ranks attached later.
func newFaultState(env *des.Env, spec cluster.Spec, model *costmodel.Model, horizon float64, cfg ResilienceConfig) *faultState {
	fs := &faultState{
		model: model, rec: cfg.Recovery(), backend: cfg.Backend, horizon: horizon,
		solvers:  make([][]*rankFaults, spec.Nodes),
		trainers: make([][]*rankFaults, spec.Nodes),
	}
	fs.inj = faults.New(env, spec, faults.Profile{
		Seed: cfg.Seed, MTBFS: cfg.MTBFS, RepairS: cfg.RepairS, Until: horizon,
	}, faults.Hooks{
		Crash:  func(node int) { fs.each(node, (*rankFaults).onCrash) },
		Repair: func(node int) { fs.each(node, (*rankFaults).onRepair) },
	})
	fs.inj.Start()
	return fs
}

// each applies fn to the layers of node's ranks, solvers first.
func (fs *faultState) each(node int, fn func(*rankFaults)) {
	for _, f := range fs.solvers[node] {
		fn(f)
	}
	for _, f := range fs.trainers[node] {
		fn(f)
	}
}

// rankFaults is the fault layer of one staging rank: everything a crash
// or a repair does to the loop of flat.go, for solver and trainer ranks
// alike. The loop tells it that a transfer began (started), asks whether
// a completed one counts (landed) and arms its next wake-up through it
// (wake); the injector's hooks drive the rest.
type rankFaults struct {
	r    *stagingRank
	fs   *faultState
	wake *des.Hold // the rank's wake-up, cancellable

	down       bool
	busy       bool // transfer in flight
	epoch      int  // bumps on crash; stale transfers are discarded
	startEpoch int
	pendResume bool // resume deferred behind a draining transfer

	// What follows is a solver rank's alone: its checkpoint cadence, its
	// post-repair restore and its account of work lost.
	solver bool
	// unrecovered: the loss since lastCommit has been charged and the
	// recovery has not completed; a further crash charges nothing.
	unrecovered bool
	lastCommit  float64
	ckptW       *costmodel.CheckpointOp
	ckptR       *costmodel.CheckpointOp
	ckptHold    *des.Hold
	ckptStart   float64
	ckptBusy    bool
	restoring   bool
}

// attach gives r its fault layer and arms its first poll (and, on a
// solver rank under checkpoint/restart, its first checkpoint). In a
// healthy run these are the schedule calls of an unlayered rank, at
// identical (time, order) positions.
func (fs *faultState) attach(r *stagingRank, cfg rankConfig) {
	f := &rankFaults{
		r: r, fs: fs, wake: des.NewHold(r.env, r.wake),
		solver: cfg.write, lastCommit: r.env.Now(),
	}
	r.faults = f
	if f.solver {
		fs.solvers[cfg.node] = append(fs.solvers[cfg.node], f)
		f.ckptW = fs.model.NewCheckpointWrite(fs.backend, cfg.node, fs.rec.CkptSizeMB, f.ckptDone)
		f.ckptR = fs.model.NewCheckpointRead(fs.backend, cfg.node, fs.rec.CkptSizeMB, f.restoreDone)
		f.ckptHold = des.NewHold(r.env, f.ckptTick)
	} else {
		fs.trainers[cfg.node] = append(fs.trainers[cfg.node], f)
	}
	r.arm()
	if f.solver && fs.rec.Policy == faults.CheckpointRestart {
		// stagger phases the first cadence tick within [1, 2) intervals,
		// spreading the fleet's checkpoints evenly instead of firing all
		// ranks in one synchronized burst against the shared deployment.
		f.armCkpt(fs.rec.CkptIntervalS * (1 + cfg.stagger))
	}
}

// started is the loop reporting a transfer begun. (A down rank never
// does: its crash cancelled the wake-up.)
func (f *rankFaults) started() {
	f.busy = true
	f.startEpoch = f.epoch
}

// landed is the loop reporting a completed transfer; it counts unless
// the node died while it was in flight. Then the result is gone, and if
// the rank has already been repaired the loop that was parked behind the
// drain resumes.
func (f *rankFaults) landed() bool {
	f.busy = false
	if f.startEpoch == f.epoch {
		return true
	}
	if f.pendResume && !f.down {
		f.pendResume = false
		f.resume()
	}
	return false
}

// resume re-arms the loop after recovery, deferring behind a
// still-draining orphaned transfer.
func (f *rankFaults) resume() {
	if f.busy {
		f.pendResume = true
		return
	}
	f.r.arm()
}

// onCrash tears the rank down: the pending wake-up and checkpoint
// cadence are cancelled, in-flight checkpoint operations aborted, an
// in-flight transfer becomes stale, and the work lost since the last
// durable commit is accounted. A crash landing mid-recovery — the
// restore read still running — charges nothing: no work has accrued
// since the repair, and the loss since lastCommit was already charged at
// the previous crash.
func (f *rankFaults) onCrash() {
	f.down = true
	f.epoch++
	f.pendResume = false
	f.wake.Cancel()
	if !f.solver {
		return
	}
	f.ckptHold.Cancel()
	if f.ckptBusy {
		f.ckptW.Abort()
		f.ckptBusy = false
	}
	if f.restoring {
		f.ckptR.Abort()
		f.restoring = false
	}
	if !f.unrecovered {
		f.fs.wasted += f.r.env.Now() - f.lastCommit
		f.unrecovered = true
	}
}

// onRepair brings the rank back: a trainer resumes polling; a fail-stop
// solver restarts from scratch immediately; under checkpoint/restart it
// first replays the last durable checkpoint through the backend.
func (f *rankFaults) onRepair() {
	f.down = false
	switch {
	case !f.solver:
		f.resume()
	case f.fs.rec.Policy == faults.CheckpointRestart:
		f.startRestore()
	default:
		f.unrecovered = false
		f.lastCommit = f.r.env.Now()
		f.resume()
	}
}

// ckptTick is one checkpoint cadence tick.
func (f *rankFaults) ckptTick() {
	fs, now := f.fs, f.r.env.Now()
	if now >= fs.horizon {
		return // never let checkpoint traffic outlive the campaign
	}
	if f.down || f.ckptBusy {
		// A previous checkpoint is still in flight: skip this cadence
		// tick rather than stacking operations.
		if !f.down {
			f.armCkpt(fs.rec.CkptIntervalS)
		}
		return
	}
	f.ckptStart = now
	f.ckptBusy = true
	f.ckptW.Start()
}

// armCkpt schedules the next cadence tick if it lands inside the
// campaign; a tick past the horizon is never scheduled at all, so
// checkpoint housekeeping cannot stretch the measured end time.
func (f *rankFaults) armCkpt(d float64) {
	if f.r.env.Now()+d < f.fs.horizon {
		f.ckptHold.After(d)
	}
}

// ckptDone commits one durable checkpoint. The commit point is the
// write's *start* time: the checkpoint can only capture state as of the
// moment it began, so work done while it was being written is not
// durable and is charged as wasted if the node crashes afterwards.
func (f *rankFaults) ckptDone() {
	f.ckptBusy = false
	f.fs.ckptWrites++
	f.fs.ckptTotalS += f.r.env.Now() - f.ckptStart
	f.lastCommit = f.ckptStart
	f.armCkpt(f.fs.rec.CkptIntervalS)
}

// startRestore begins the post-repair checkpoint read.
func (f *rankFaults) startRestore() {
	f.restoring = true
	f.ckptR.Start()
}

// restoreDone completes the post-repair checkpoint read: the rank is
// recovered and resumes work and checkpointing.
func (f *rankFaults) restoreDone() {
	f.restoring = false
	f.unrecovered = false
	f.lastCommit = f.r.env.Now()
	f.resume()
	f.armCkpt(f.fs.rec.CkptIntervalS)
}

// RunResilienceChecked simulates one disturbance configuration and
// returns its measurement. Deterministic: equal configs give bit-equal
// points, and the crash timeline depends only on (Seed, MTBFS, RepairS,
// node count), so sweeping the checkpoint cadence compares recovery
// policies against identical disturbances. A NaN or infinite field
// (MTBFS may be infinite: never) is an error naming it; with
// cfg.MaxEvents set, a runaway simulation aborts with the structured
// des.BudgetExceeded error.
func RunResilienceChecked(cfg ResilienceConfig) (ResiliencePoint, error) {
	fail := func(err error) (ResiliencePoint, error) {
		return ResiliencePoint{}, fmt.Errorf("resilience (%s, mtbf %s, ckpt %s): %w",
			cfg.Backend, mtbfLabel(cfg.MTBFS), ckptLabel(cfg.CkptIntervalS), err)
	}
	if math.IsNaN(cfg.MTBFS) { // ±Inf is "never"
		return fail(finite(knob{"MTBFS", cfg.MTBFS}))
	}
	if err := finite(knob{"RepairS", cfg.RepairS}, knob{"CkptIntervalS", cfg.CkptIntervalS},
		knob{"CkptSizeMB", cfg.CkptSizeMB}); err != nil {
		return fail(err)
	}
	cfg = cfg.withDefaults()
	run, err := runColocated(ScaleOutConfig{
		Tenants: cfg.Tenants, NodesPerTenant: cfg.NodesPerTenant, Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		SimIterS: cfg.SimIterS, TrainIterS: cfg.TrainIterS,
		WritePeriod: cfg.WritePeriod, ReadPeriod: cfg.ReadPeriod, TrainIters: cfg.TrainIters,
		MaxEvents: cfg.MaxEvents, Params: cfg.Params,
	}, true, func(env *des.Env, spec cluster.Spec, model *costmodel.Model, horizon float64) *faultState {
		return newFaultState(env, spec, model, horizon, cfg)
	})
	if err != nil {
		return fail(err)
	}

	fs := run.faults
	rankSeconds := float64(run.simRanks) * run.horizon
	pt := ResiliencePoint{
		Tenants:       cfg.Tenants,
		Backend:       cfg.Backend,
		SizeMB:        cfg.SizeMB,
		MTBFS:         cfg.MTBFS,
		CkptIntervalS: cfg.CkptIntervalS,
		WriteGBps:     run.writeTput.MeanGBps(),
		ReadGBps:      run.readTput.MeanGBps(),
		StageMeanS:    run.writeTime.Mean(),
		StageP50S:     stats.QuantileInPlace(run.samples, 0.5),
		SharedWaitS:   run.model.SharedWaitS(cfg.Backend),
		AggGBps:       run.aggGBps(),
		Writes:        run.writeTime.N(),
		Crashes:       fs.inj.Crashes(),
		WastedS:       fs.wasted,
		WastedFrac:    fs.wasted / rankSeconds,
		CkptWrites:    fs.ckptWrites,
		CkptTotalS:    fs.ckptTotalS,
		CkptFrac:      fs.ckptTotalS / rankSeconds,
	}
	pt.EffGBps = pt.AggGBps * (1 - pt.WastedFrac)
	if cfg.MTBFS <= 0 {
		pt.MTBFS = math.Inf(1)
	}
	return pt, nil
}

// ResilienceMTBFs is the default per-node MTBF sweep: healthy, a
// failure every couple of campaign lengths, and a failure-dominated
// regime.
var ResilienceMTBFs = []float64{math.Inf(1), 120, 30}

// ResilienceCkptIntervals is the default checkpoint-cadence sweep; 0 is
// the fail-stop baseline (no checkpoints).
var ResilienceCkptIntervals = []float64{0, 16, 8, 4, 2}

// resilienceMTBFs / resilienceCkpts derive the sweep axes from Params:
// -mtbf / -ckpt narrow the grid to {healthy, value} / {fail-stop,
// value} so single points remain scriptable from the CLI.
func resilienceMTBFs(mtbf float64) []float64 {
	if mtbf > 0 && !math.IsInf(mtbf, 1) {
		return []float64{math.Inf(1), mtbf}
	}
	return ResilienceMTBFs
}

func resilienceCkpts(ckpt float64) []float64 {
	if ckpt > 0 {
		return []float64{0, ckpt}
	}
	return ResilienceCkptIntervals
}

// mtbfLabel renders an MTBF cell: finite seconds, or "never" for the
// healthy baseline (tables must not carry ±Inf values — the JSON
// reporter cannot encode them).
func mtbfLabel(mtbf float64) string {
	if math.IsInf(mtbf, 1) || mtbf <= 0 {
		return "never"
	}
	return fmt.Sprintf("%g", mtbf)
}

// ckptLabel renders a checkpoint-interval cell; 0 is the fail-stop
// baseline.
func ckptLabel(ckpt float64) string {
	if ckpt <= 0 {
		return "off"
	}
	return fmt.Sprintf("%g", ckpt)
}

// resilienceTable structures one backend's disturbance grid. The eff
// column is each row's delivered aggregate throughput relative to the
// healthy fail-stop baseline row of the same backend.
func resilienceTable(b datastore.Backend, points []ResiliencePoint) scenario.Table {
	t := scenario.Table{
		Title: fmt.Sprintf("Resilience — %s: wasted work and effective throughput under node failures", b),
		Columns: []scenario.Column{
			{Key: "mtbf_s", Head: "mtbf(s)", HeadFmt: "%8s", CellFmt: "%8s"},
			{Key: "ckpt_s", Head: "ckpt(s)", HeadFmt: "%8s", CellFmt: "%8s"},
			{Key: "crashes", Head: "crashes", HeadFmt: "%8s", CellFmt: "%8d"},
			{Key: "wasted_frac", Head: "wasted", HeadFmt: "%8s", CellFmt: "%8.4f"},
			{Key: "ckpt_frac", Head: "ckpt-ovh", HeadFmt: "%9s", CellFmt: "%9.4f"},
			{Key: "stage_p50_s", Head: "p50-stage(s)", HeadFmt: "%13s", CellFmt: "%13.5f"},
			{Key: "agg_gbps", Head: "agg(GB/s)", HeadFmt: "%10s", CellFmt: "%10.3f"},
			{Key: "eff", Head: "eff", HeadFmt: "%6s", CellFmt: "%6.3f"},
		},
	}
	base := 0.0
	for _, pt := range points {
		if math.IsInf(pt.MTBFS, 1) && pt.CkptIntervalS == 0 {
			base = pt.EffGBps
		}
	}
	for _, pt := range points {
		eff := 0.0
		if base > 0 {
			eff = pt.EffGBps / base
		}
		t.Rows = append(t.Rows, []any{mtbfLabel(pt.MTBFS), ckptLabel(pt.CkptIntervalS),
			pt.Crashes, pt.WastedFrac, pt.CkptFrac, pt.StageP50S, pt.AggGBps, eff})
	}
	return t
}

// optimalCkptTable summarizes, per backend and finite MTBF, the
// empirically best checkpoint interval of the sweep (maximum delivered
// throughput) against Young's √(2·δ·MTBF) approximation, with δ the
// analytic uncontended checkpoint write time.
func optimalCkptTable(byBackend map[datastore.Backend][]ResiliencePoint, ckptSizeMB float64) scenario.Table {
	t := scenario.Table{
		Title: "Resilience — optimal checkpoint interval per backend (empirical best vs Young's approximation)",
		Columns: []scenario.Column{
			{Key: "backend", Head: "backend", HeadFmt: "%-12s", CellFmt: "%-12s"},
			{Key: "mtbf_s", Head: "mtbf(s)", HeadFmt: "%8s", CellFmt: "%8s"},
			{Key: "best_ckpt_s", Head: "best-ckpt(s)", HeadFmt: "%13s", CellFmt: "%13s"},
			{Key: "young_ckpt_s", Head: "young-ckpt(s)", HeadFmt: "%14s", CellFmt: "%14.2f"},
			{Key: "eff_best_gbps", Head: "eff@best", HeadFmt: "%9s", CellFmt: "%9.3f"},
			{Key: "eff_failstop_gbps", Head: "eff@off", HeadFmt: "%8s", CellFmt: "%8.3f"},
		},
	}
	// Analytic checkpoint cost needs a model instance; the constants are
	// size-independent of the cluster, so a minimal spec serves.
	model := costmodel.New(des.NewEnv(), cluster.Aurora(1), costmodel.Default())
	for _, b := range datastore.Backends() {
		points := byBackend[b]
		mtbfs := []float64{}
		seen := map[float64]bool{}
		for _, pt := range points {
			if !math.IsInf(pt.MTBFS, 1) && !seen[pt.MTBFS] {
				seen[pt.MTBFS] = true
				mtbfs = append(mtbfs, pt.MTBFS)
			}
		}
		delta := model.AnalyticCheckpoint(b, ckptSizeMB)
		for _, m := range mtbfs {
			best, bestEff, failstopEff := 0.0, -1.0, 0.0
			for _, pt := range points {
				if pt.MTBFS != m {
					continue
				}
				if pt.CkptIntervalS == 0 {
					failstopEff = pt.EffGBps
				}
				if pt.EffGBps > bestEff {
					bestEff, best = pt.EffGBps, pt.CkptIntervalS
				}
			}
			t.Rows = append(t.Rows, []any{b.String(), mtbfLabel(m), ckptLabel(best),
				math.Sqrt(2 * delta * m), bestEff, failstopEff})
		}
	}
	return t
}

// runResilienceScenario is the registered "resilience" scenario: the
// MTBF × checkpoint-interval grid for all four backends, one
// disturbance table per backend plus the optimal-interval summary. Each
// grid runs under the run guardrails: failed cells become
// Result.Failures while the completed points still render.
func runResilienceScenario(ctx context.Context, p scenario.Params) (*scenario.Result, error) {
	res := &scenario.Result{Scenario: "resilience", Params: p}
	mtbfs := resilienceMTBFs(p.MTBF)
	ckpts := resilienceCkpts(p.CkptInterval)
	byBackend := map[datastore.Backend][]ResiliencePoint{}
	for _, b := range datastore.Backends() {
		points, fails, err := guardedGrid(ctx, p, "resilience/"+b.String(), mtbfs, ckpts,
			func(mtbf, ckpt float64) (ResiliencePoint, error) {
				return RunResilienceChecked(ResilienceConfig{
					Tenants: p.Tenants, Backend: b, TrainIters: p.SweepIters,
					MTBFS: mtbf, CkptIntervalS: ckpt, MaxEvents: p.MaxEvents,
				})
			})
		if err != nil {
			return nil, err
		}
		res.Failures = append(res.Failures, fails...)
		byBackend[b] = points
		res.Tables = append(res.Tables, resilienceTable(b, points))
	}
	res.Tables = append(res.Tables, optimalCkptTable(byBackend, ResilienceConfig{}.withDefaults().CkptSizeMB))
	return res, nil
}
