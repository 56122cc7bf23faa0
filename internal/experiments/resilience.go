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
// (internal/faults) crashes nodes, slows stragglers and takes the
// shared datastore offline, and a recovery policy — fail-stop or
// checkpoint/restart through the same backend deployment the snapshots
// stage through — decides how much work each disturbance costs. The
// sweep axes are MTBF × checkpoint interval × backend; the observables
// are the wasted-work fraction, the checkpoint-overhead fraction and
// the effective (delivered) throughput, plus an optimal-checkpoint-
// interval table comparing the empirical best cadence against Young's
// √(2·δ·MTBF) approximation.
//
// The rank machines below are the scale-out machines of flat.go with
// interruptibility threaded through: cancellable wake-ups (des.Hold),
// abortable checkpoints (costmodel.CheckpointOp over cancellable
// des.Grants), and epoch counters that discard transfers whose node
// died mid-flight. With a healthy profile (MTBF=∞, checkpointing off)
// they issue exactly the schedule calls of initSimWriter and the
// effective ones of initAIReader (resAIReader still executes the idle
// polls aiReader.nextPoll skips; its default periods have none), so the
// healthy resilience run is bit-identical to the equivalent scale-out
// run — pinned by TestResilienceHealthyMatchesScaleOut, idle polls
// included.

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
	// ReDispatchStragglers migrates ranks off straggling nodes.
	ReDispatchStragglers bool
	// StragglerMTBS / StragglerFactor / StragglerDurS: straggler
	// episodes (disabled unless all set; see faults.Profile).
	StragglerMTBS   float64
	StragglerFactor float64
	StragglerDurS   float64
	// OutageMTBS / OutageDurS: transient datastore outages (disabled
	// unless both set).
	OutageMTBS float64
	OutageDurS float64
	// MaxEvents caps the DES events the run may execute (0 = unlimited);
	// RunResilienceChecked surfaces the budget trip as an error.
	MaxEvents int64
	// Params overrides the cost-model constants (zero value = Default).
	Params *costmodel.Params
}

// withDefaults fills unset fields with the resilience defaults,
// mirroring ScaleOutConfig.withDefaults for the shared workload knobs.
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.NodesPerTenant <= 0 {
		c.NodesPerTenant = 2
	}
	if c.SizeMB <= 0 {
		c.SizeMB = 8
	}
	if c.SimIterS <= 0 {
		c.SimIterS = 0.0325
	}
	if c.TrainIterS <= 0 {
		c.TrainIterS = 0.0633
	}
	if c.WritePeriod <= 0 {
		c.WritePeriod = 10
	}
	if c.ReadPeriod <= 0 {
		c.ReadPeriod = 10
	}
	if c.TrainIters <= 0 {
		c.TrainIters = 600
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RepairS <= 0 {
		c.RepairS = 1
	}
	if c.CkptSizeMB <= 0 {
		c.CkptSizeMB = 8
	}
	return c
}

// Recovery derives the faults.Recovery this config selects: the policy
// is CheckpointRestart exactly when a checkpoint cadence is set,
// fail-stop otherwise. Exposed so callers can inspect which policy a
// configuration implies (e.g. comparing against faults.ParsePolicy
// output) without re-deriving the rule.
func (c ResilienceConfig) Recovery() faults.Recovery {
	rec := faults.Recovery{
		CkptIntervalS:        c.CkptIntervalS,
		CkptSizeMB:           c.CkptSizeMB,
		ReDispatchStragglers: c.ReDispatchStragglers,
	}
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

// resFaultState is the per-run state shared by every rank machine: the
// injector plus the model/config handles ranks need to rebuild their
// transfer objects when re-dispatched.
type resFaultState struct {
	inj     *faults.Injector
	model   *costmodel.Model
	rec     faults.Recovery
	backend datastore.Backend
	sizeMB  float64
	horizon float64
	// byNodeW / byNodeR map node index -> resident rank machines;
	// re-dispatch moves a writer between lists.
	byNodeW [][]*resSimWriter
	byNodeR [][]*resAIReader
}

// resSimWriter is the solver rank of the resilience campaign: the
// simWriter loop of flat.go plus crash/repair, checkpointing,
// straggler re-dispatch and outage deferral.
type resSimWriter struct {
	env     *des.Env
	fs      *resFaultState
	node    int
	period  float64
	horizon float64
	start   float64
	bytes   int64
	time    *stats.Welford
	tput    *stats.Throughput
	samples *[]float64
	xfer    xferStarter
	wake    *des.Hold

	down       bool
	busy       bool // staged write in flight
	epoch      int  // bumps on crash; stale transfers are discarded
	startEpoch int
	pendResume bool // resume deferred behind a draining transfer
	// unrecovered marks a rank whose loss since lastCommit has been
	// charged but whose recovery has not completed (restore still
	// running, parked behind an outage, or dropped at the horizon): a
	// further crash in that window accrued no new work and must charge
	// nothing.
	unrecovered bool
	lastCommit  float64
	wasted      *float64
	ckptW       *costmodel.CheckpointOp
	ckptR       *costmodel.CheckpointOp
	ckptHold    *des.Hold
	restoreHold *des.Hold // defers a restore parked behind an outage
	ckptStart   float64
	ckptBusy    bool
	restoring   bool
	ckptWrites  *int64
	ckptTotalS  *float64
	slowdownRef func(node int) float64
	// stagger phases this rank's first cadence tick within [1, 2)
	// intervals, spreading the fleet's checkpoints evenly instead of
	// firing all ranks in one synchronized burst against the shared
	// deployment.
	stagger float64
}

// initResSimWriter mirrors initSimWriter: in a healthy run its
// schedule calls (one wake push at construction, one per completed
// write) land at identical (time, order) positions.
func initResSimWriter(w *resSimWriter, env *des.Env, fs *resFaultState, node int,
	period float64, bytes int64, time *stats.Welford, tput *stats.Throughput,
	samples *[]float64, wasted *float64, ckptWrites *int64, ckptTotalS *float64,
	stagger float64) {
	*w = resSimWriter{
		env: env, fs: fs, node: node, period: period, horizon: fs.horizon,
		bytes: bytes, time: time, tput: tput, samples: samples,
		lastCommit: env.Now(), wasted: wasted,
		ckptWrites: ckptWrites, ckptTotalS: ckptTotalS,
		slowdownRef: fs.inj.Slowdown,
		stagger:     stagger,
	}
	w.wake = des.NewHold(env, func() {
		if w.down {
			return // repair resumes us
		}
		if fs.inj.OutageActive() {
			// Defer to the outage end; a deferral past the horizon is
			// dropped so outage housekeeping cannot stretch the
			// measured end time.
			if u := fs.inj.OutageUntil(); u < w.horizon {
				w.wake.At(u)
			}
			return
		}
		w.start = env.Now()
		w.busy = true
		w.startEpoch = w.epoch
		w.xfer.Start()
	})
	w.bindNode(node)
	w.ckptHold = des.NewHold(env, func() {
		if env.Now() >= w.horizon {
			return // never let checkpoint traffic outlive the campaign
		}
		if w.down || w.ckptBusy {
			// A previous checkpoint is still in flight: skip this
			// cadence tick rather than stacking operations.
			if !w.down {
				w.armCkpt(fs.rec.CkptIntervalS)
			}
			return
		}
		if fs.inj.OutageActive() {
			// The datastore is down: no checkpoint can start. Defer the
			// tick to the outage end (horizon-guarded like every arm).
			if fs.inj.OutageUntil() < w.horizon {
				w.ckptHold.At(fs.inj.OutageUntil())
			}
			return
		}
		w.ckptStart = env.Now()
		w.ckptBusy = true
		w.ckptW.Start()
	})
	w.restoreHold = des.NewHold(env, w.startRestore)
	if env.Now() < w.horizon {
		w.wake.After(w.period)
	}
	if fs.rec.Policy == faults.CheckpointRestart && fs.rec.CkptIntervalS > 0 {
		w.armCkpt(fs.rec.CkptIntervalS * (1 + w.stagger))
	}
}

// bindNode (re)builds the transfer objects rooted at the rank's
// current node — at construction and again on re-dispatch.
func (w *resSimWriter) bindNode(node int) {
	w.node = node
	w.xfer = w.fs.model.NewSharedLocalWrite(w.fs.backend, node, w.fs.sizeMB, w.writeDone)
	w.ckptW = w.fs.model.NewCheckpointWrite(w.fs.backend, node, w.fs.rec.CkptSizeMB, w.ckptDone)
	w.ckptR = w.fs.model.NewCheckpointRead(w.fs.backend, node, w.fs.rec.CkptSizeMB, w.restoreDone)
}

// writeDone completes one staged snapshot write.
func (w *resSimWriter) writeDone() {
	w.busy = false
	now := w.env.Now()
	if w.startEpoch != w.epoch {
		// The node died while this transfer was in flight: the result
		// is gone. If the rank has already been repaired, resume the
		// loop that was parked behind the drain.
		if w.pendResume && !w.down {
			w.pendResume = false
			w.resume()
		}
		return
	}
	d := now - w.start
	if w.time != nil {
		w.time.Add(d)
	}
	if w.tput != nil {
		w.tput.Add(w.bytes, d)
	}
	if w.samples != nil {
		*w.samples = append(*w.samples, d)
	}
	if now < w.horizon {
		w.wake.After(w.period * w.slowdownRef(w.node))
	}
}

// resume re-arms the work loop after recovery, deferring behind a
// still-draining orphaned transfer.
func (w *resSimWriter) resume() {
	if w.busy {
		w.pendResume = true
		return
	}
	if w.env.Now() < w.horizon {
		w.wake.After(w.period * w.slowdownRef(w.node))
	}
}

// armCkpt schedules the next cadence tick if it lands inside the
// campaign; a tick past the horizon is never scheduled at all, so
// checkpoint housekeeping cannot stretch the measured end time.
func (w *resSimWriter) armCkpt(d float64) {
	if w.env.Now()+d < w.horizon {
		w.ckptHold.After(d)
	}
}

// ckptDone commits one durable checkpoint. The commit point is the
// write's *start* time: the checkpoint can only capture state as of
// the moment it began, so work done while it was being written is not
// durable and is charged as wasted if the node crashes afterwards.
func (w *resSimWriter) ckptDone() {
	w.ckptBusy = false
	now := w.env.Now()
	*w.ckptWrites++
	*w.ckptTotalS += now - w.ckptStart
	w.lastCommit = w.ckptStart
	w.armCkpt(w.fs.rec.CkptIntervalS)
}

// restoreDone completes the post-repair checkpoint read: the rank is
// recovered and resumes work and checkpointing.
func (w *resSimWriter) restoreDone() {
	w.restoring = false
	w.unrecovered = false
	w.lastCommit = w.env.Now()
	w.resume()
	w.armCkpt(w.fs.rec.CkptIntervalS)
}

// onCrash tears the rank down: cancel the pending wake and checkpoint
// cadence, abort in-flight checkpoint operations, account the work
// lost since the last durable commit. A crash landing mid-recovery —
// the restore read still running, or parked behind an outage — charges
// nothing: no work has accrued since the repair, and the loss since
// lastCommit was already charged at the previous crash.
func (w *resSimWriter) onCrash() {
	w.down = true
	w.epoch++
	w.pendResume = false
	w.wake.Cancel()
	w.ckptHold.Cancel()
	if w.ckptBusy {
		w.ckptW.Abort()
		w.ckptBusy = false
	}
	w.restoreHold.Cancel()
	if w.restoring {
		w.ckptR.Abort()
		w.restoring = false
	}
	if !w.unrecovered {
		*w.wasted += w.env.Now() - w.lastCommit
		w.unrecovered = true
	}
}

// onRepair brings the rank back: fail-stop restarts from scratch
// immediately; checkpoint/restart first replays the last durable
// checkpoint through the backend.
func (w *resSimWriter) onRepair() {
	w.down = false
	if w.fs.rec.Policy == faults.CheckpointRestart && w.fs.rec.CkptIntervalS > 0 {
		w.startRestore()
		return
	}
	w.unrecovered = false
	w.lastCommit = w.env.Now()
	w.resume()
}

// startRestore begins the post-repair checkpoint read, waiting out an
// active datastore outage first (a restore cannot read from a backend
// that is down).
func (w *resSimWriter) startRestore() {
	if w.fs.inj.OutageActive() {
		if w.fs.inj.OutageUntil() < w.horizon {
			w.restoreHold.At(w.fs.inj.OutageUntil())
		}
		return
	}
	w.restoring = true
	w.ckptR.Start()
}

// reDispatch migrates the rank to a healthy replacement node (straggler
// re-dispatch policy). In-flight checkpoint operations bound to the old
// node are aborted first — rebinding would otherwise orphan their only
// Abort handle, letting a dead claim fire ckptDone later. An aborted
// restore is replayed from the new node.
func (w *resSimWriter) reDispatch(to int) {
	if w.ckptBusy {
		w.ckptW.Abort()
		w.ckptBusy = false
		// The aborted write was carrying the cadence (ckptDone would
		// have re-armed it): re-arm, or the migrated rank would never
		// checkpoint again.
		w.armCkpt(w.fs.rec.CkptIntervalS)
	}
	redoRestore := w.restoring
	if redoRestore {
		w.ckptR.Abort()
		w.restoring = false
	}
	w.bindNode(to)
	if redoRestore {
		w.startRestore()
	}
}

// resAIReader is the trainer rank: the aiReader poll loop plus
// crash/repair pause and outage deferral.
type resAIReader struct {
	env         *des.Env
	fs          *resFaultState
	node        int
	readPeriod  float64
	writePeriod float64
	horizon     float64
	lastRead    float64
	start       float64
	bytes       int64
	tput        *stats.Throughput
	xfer        xferStarter
	wake        *des.Hold

	down       bool
	busy       bool
	epoch      int
	startEpoch int
	pendResume bool
}

// initResAIReader mirrors initAIReader in a healthy run, except that it
// executes every poll: an idle one is a point where a crash or an outage
// can find the rank.
func initResAIReader(r *resAIReader, env *des.Env, fs *resFaultState, node int,
	readPeriod, writePeriod float64, bytes int64, tput *stats.Throughput) {
	*r = resAIReader{
		env: env, fs: fs, node: node, readPeriod: readPeriod, writePeriod: writePeriod,
		horizon: fs.horizon, lastRead: -writePeriod, bytes: bytes, tput: tput,
	}
	r.xfer = fs.model.NewSharedLocalRead(fs.backend, node, fs.sizeMB, r.readDone)
	r.wake = des.NewHold(env, func() {
		if r.down {
			return
		}
		now := env.Now()
		if now-r.lastRead < r.writePeriod {
			if now < r.horizon {
				r.wake.After(r.readPeriod)
			}
			return
		}
		if fs.inj.OutageActive() {
			if u := fs.inj.OutageUntil(); u < r.horizon {
				r.wake.At(u)
			}
			return
		}
		r.lastRead = now
		r.start = now
		r.busy = true
		r.startEpoch = r.epoch
		r.xfer.Start()
	})
	if env.Now() < r.horizon {
		r.wake.After(r.readPeriod)
	}
}

func (r *resAIReader) readDone() {
	r.busy = false
	now := r.env.Now()
	if r.startEpoch != r.epoch {
		if r.pendResume && !r.down {
			r.pendResume = false
			r.resume()
		}
		return
	}
	if r.tput != nil {
		r.tput.Add(r.bytes, now-r.start)
	}
	if now < r.horizon {
		r.wake.After(r.readPeriod)
	}
}

func (r *resAIReader) resume() {
	if r.busy {
		r.pendResume = true
		return
	}
	if r.env.Now() < r.horizon {
		r.wake.After(r.readPeriod)
	}
}

func (r *resAIReader) onCrash() {
	r.down = true
	r.epoch++
	r.pendResume = false
	r.wake.Cancel()
}

func (r *resAIReader) onRepair() {
	r.down = false
	r.resume()
}

// RunResilienceChecked simulates one disturbance configuration and
// returns its measurement. Deterministic: equal configs give bit-equal
// points, and the crash timeline depends only on (Seed, MTBFS, RepairS,
// node count), so sweeping the checkpoint cadence compares recovery
// policies against identical disturbances. With cfg.MaxEvents set, a
// runaway simulation aborts with the structured des.BudgetExceeded
// error; with no budget it never fails.
func RunResilienceChecked(cfg ResilienceConfig) (ResiliencePoint, error) {
	cfg = cfg.withDefaults()
	spec := cluster.Aurora(cfg.Tenants * cfg.NodesPerTenant)
	tenants, err := cluster.CoSchedule(spec, cfg.Tenants, cfg.NodesPerTenant)
	if err != nil {
		// Unreachable with withDefaults-sanitized inputs.
		panic(err)
	}
	place := cluster.Pattern1Placement(spec)
	env := newGuardedEnv(cfg.MaxEvents)
	params := costmodel.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	model := costmodel.New(env, spec, params)

	horizon := float64(cfg.TrainIters) * cfg.TrainIterS
	bytes := int64(cfg.SizeMB * 1e6)
	var writeTput, readTput stats.Throughput
	var writeTime stats.Welford
	var wasted, ckptTotalS float64
	var ckptWrites int64

	fs := &resFaultState{
		model: model, rec: cfg.Recovery(), backend: cfg.Backend,
		sizeMB: cfg.SizeMB, horizon: horizon,
		byNodeW: make([][]*resSimWriter, spec.Nodes),
		byNodeR: make([][]*resAIReader, spec.Nodes),
	}
	fs.inj = faults.New(env, spec, faults.Profile{
		Seed:            cfg.Seed,
		MTBFS:           cfg.MTBFS,
		RepairS:         cfg.RepairS,
		StragglerMTBS:   cfg.StragglerMTBS,
		StragglerFactor: cfg.StragglerFactor,
		StragglerDurS:   cfg.StragglerDurS,
		OutageMTBS:      cfg.OutageMTBS,
		OutageDurS:      cfg.OutageDurS,
		Until:           horizon,
	}, faults.Hooks{
		Crash: func(node int) {
			for _, w := range fs.byNodeW[node] {
				w.onCrash()
			}
			for _, r := range fs.byNodeR[node] {
				r.onCrash()
			}
		},
		Repair: func(node int) {
			for _, w := range fs.byNodeW[node] {
				w.onRepair()
			}
			for _, r := range fs.byNodeR[node] {
				r.onRepair()
			}
		},
		StragglerStart: func(node int) {
			if !fs.rec.ReDispatchStragglers {
				return
			}
			to, ok := fs.inj.NodeSet().Replacement(node)
			if !ok {
				return
			}
			moved := fs.byNodeW[node]
			fs.byNodeW[node] = nil
			for _, w := range moved {
				w.reDispatch(to)
			}
			fs.byNodeW[to] = append(fs.byNodeW[to], moved...)
		},
	})
	fs.inj.Start()

	writePeriod := float64(cfg.WritePeriod) * cfg.SimIterS
	readPeriod := float64(cfg.ReadPeriod) * cfg.TrainIterS
	nodes := cfg.Tenants * cfg.NodesPerTenant
	simRanks := nodes * place.SimTilesPerNode
	samples := make([]float64, 0, simRanks*(int(horizon/writePeriod)+2))
	writers := make([]resSimWriter, simRanks)
	readers := make([]resAIReader, nodes*place.AITilesPerNode)
	wi, ri := 0, 0
	for _, tn := range tenants {
		for _, node := range tn.Nodes {
			for k := 0; k < place.SimTilesPerNode; k++ {
				w := &writers[wi]
				initResSimWriter(w, env, fs, node, writePeriod, bytes,
					&writeTime, &writeTput, &samples, &wasted, &ckptWrites, &ckptTotalS,
					float64(wi)/float64(simRanks))
				fs.byNodeW[node] = append(fs.byNodeW[node], w)
				wi++
			}
			for k := 0; k < place.AITilesPerNode; k++ {
				r := &readers[ri]
				initResAIReader(r, env, fs, node, readPeriod, writePeriod, bytes, &readTput)
				fs.byNodeR[node] = append(fs.byNodeR[node], r)
				ri++
			}
		}
	}
	endT := env.RunUntil(horizon * 1.5)
	guardErr := env.Err()
	if endT <= 0 {
		endT = horizon
	}
	env.Shutdown() // drop the injector's pending disturbance events
	if guardErr != nil {
		return ResiliencePoint{}, fmt.Errorf("resilience (%s, mtbf %s, ckpt %s): %w",
			cfg.Backend, mtbfLabel(cfg.MTBFS), ckptLabel(cfg.CkptIntervalS), guardErr)
	}

	aggGBps := 0.0
	if writeTime.N() > 0 {
		aggGBps = float64(writeTime.N()) * float64(bytes) / 1e9 / endT
	}
	rankSeconds := float64(simRanks) * horizon
	pt := ResiliencePoint{
		Tenants:       cfg.Tenants,
		Backend:       cfg.Backend,
		SizeMB:        cfg.SizeMB,
		MTBFS:         cfg.MTBFS,
		CkptIntervalS: cfg.CkptIntervalS,
		WriteGBps:     writeTput.MeanGBps(),
		ReadGBps:      readTput.MeanGBps(),
		StageMeanS:    writeTime.Mean(),
		StageP50S:     stats.Quantile(samples, 0.5),
		SharedWaitS:   model.SharedWaitS(cfg.Backend),
		AggGBps:       aggGBps,
		Writes:        writeTime.N(),
		Crashes:       fs.inj.Crashes(),
		WastedS:       wasted,
		WastedFrac:    wasted / rankSeconds,
		CkptWrites:    ckptWrites,
		CkptTotalS:    ckptTotalS,
		CkptFrac:      ckptTotalS / rankSeconds,
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
