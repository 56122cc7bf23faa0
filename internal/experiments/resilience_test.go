package experiments

import (
	"bytes"
	"math"
	"testing"

	"simaibench/internal/clock"
	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/faults"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
)

// TestResilienceHealthyMatchesScaleOut is the equivalence contract of
// the fault layer: with crashes disabled and checkpointing off, the
// resilience rank machines must replay the exact event sequence of the
// scale-out machines — every shared observable bit-identical, for every
// backend. This is what guarantees the fault layer is a pure extension:
// its interruptibility hooks cost the healthy path nothing.
//
// The second profile (the Pattern 1 periods) writes every 3.25 s and
// polls every 0.633 s, so four polls in five find nothing: resAIReader
// executes them, aiReader skips them (nextPoll), and the two must still
// agree — this is the test that notices if one machine's poll clock is
// changed without the other's.
func TestResilienceHealthyMatchesScaleOut(t *testing.T) {
	for _, periods := range []struct{ write, read int }{{10, 10}, {100, 10}} {
		for _, b := range datastore.Backends() {
			so := checked(t, RunScaleOutChecked, ScaleOutConfig{Tenants: 4, Backend: b, TrainIters: 150,
				WritePeriod: periods.write, ReadPeriod: periods.read})
			re := checked(t, RunResilienceChecked, ResilienceConfig{Tenants: 4, Backend: b, TrainIters: 150,
				WritePeriod: periods.write, ReadPeriod: periods.read})
			if so.Writes == 0 || so.ReadGBps == 0 {
				t.Fatalf("%v %+v: the scale-out run staged nothing: %+v", b, periods, so)
			}
			if re.Crashes != 0 || re.WastedS != 0 || re.CkptWrites != 0 {
				t.Fatalf("%v %+v: healthy run reported faults: %+v", b, periods, re)
			}
			if !math.IsInf(re.MTBFS, 1) {
				t.Fatalf("%v %+v: healthy MTBF should normalize to +Inf, got %v", b, periods, re.MTBFS)
			}
			pairs := [][2]float64{
				{so.WriteGBps, re.WriteGBps},
				{so.ReadGBps, re.ReadGBps},
				{so.StageMeanS, re.StageMeanS},
				{so.StageP50S, re.StageP50S},
				{so.SharedWaitS, re.SharedWaitS},
				{so.AggGBps, re.AggGBps},
				{float64(so.Writes), float64(re.Writes)},
			}
			for i, p := range pairs {
				if p[0] != p[1] {
					t.Errorf("%v %+v: observable %d differs: scale-out %v, resilience %v", b, periods, i, p[0], p[1])
				}
			}
		}
	}
}

// TestResilienceWasteMonotoneInCkptInterval is the acceptance-criteria
// contract: with faults enabled, the wasted-work fraction decreases
// monotonically as the checkpoint interval shrinks (fail-stop — no
// checkpoints — wastes the most), for every backend, against the same
// seeded crash timeline.
func TestResilienceWasteMonotoneInCkptInterval(t *testing.T) {
	for _, b := range datastore.Backends() {
		prev := math.Inf(1)
		prevInterval := "start"
		wastes := []float64{}
		for _, ckpt := range ResilienceCkptIntervals { // 0 (off), then shrinking
			pt := checked(t, RunResilienceChecked, ResilienceConfig{Backend: b, MTBFS: 30, CkptIntervalS: ckpt})
			if pt.Crashes == 0 {
				t.Fatalf("%v ckpt=%v: no crashes at MTBF 30", b, ckpt)
			}
			if pt.WastedFrac > prev {
				t.Errorf("%v: waste increased from %v (ckpt=%s) to %v (ckpt=%v)",
					b, prev, prevInterval, pt.WastedFrac, ckpt)
			}
			prev = pt.WastedFrac
			prevInterval = ckptLabel(ckpt)
			wastes = append(wastes, pt.WastedFrac)
		}
		// The spread must be real, not a flat line of zeros.
		if wastes[0] < 2*wastes[len(wastes)-1] || wastes[0] <= 0 {
			t.Errorf("%v: waste spread too small to be meaningful: %v", b, wastes)
		}
	}
}

// TestResilienceCrashTimelineSharedAcrossPolicies: every cell of one
// MTBF column sees the identical crash count — the injector's streams
// are independent of the recovery configuration.
func TestResilienceCrashTimelineSharedAcrossPolicies(t *testing.T) {
	var crashes []int
	for _, ckpt := range []float64{0, 8, 2} {
		pt := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.NodeLocal, MTBFS: 45, CkptIntervalS: ckpt})
		crashes = append(crashes, pt.Crashes)
	}
	if crashes[0] == 0 || crashes[0] != crashes[1] || crashes[1] != crashes[2] {
		t.Fatalf("crash counts differ across recovery configs: %v", crashes)
	}
}

// TestResilienceFaultsCostThroughput: crashes must actually cost
// something — fewer completed writes and positive waste relative to the
// healthy run.
func TestResilienceFaultsCostThroughput(t *testing.T) {
	healthy := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis})
	faulty := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis, MTBFS: 20})
	if faulty.Crashes == 0 {
		t.Fatal("no crashes at MTBF 20")
	}
	if faulty.Writes >= healthy.Writes {
		t.Fatalf("crashes did not reduce completed writes: %d vs healthy %d", faulty.Writes, healthy.Writes)
	}
	if faulty.WastedS <= 0 || faulty.WastedFrac <= 0 {
		t.Fatalf("crashes wasted no work: %+v", faulty)
	}
	if faulty.EffGBps >= faulty.AggGBps {
		t.Fatal("effective throughput should be discounted below aggregate under waste")
	}
}

// TestResilienceCheckpointTrafficFlows: with checkpointing on, durable
// checkpoint writes complete and carry nonzero cost through the
// backend.
func TestResilienceCheckpointTrafficFlows(t *testing.T) {
	pt := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Dragon, MTBFS: 60, CkptIntervalS: 4})
	if pt.CkptWrites == 0 || pt.CkptTotalS <= 0 {
		t.Fatalf("no checkpoint traffic: %+v", pt)
	}
	if pt.CkptFrac <= 0 || pt.CkptFrac > 0.5 {
		t.Fatalf("checkpoint overhead fraction implausible: %v", pt.CkptFrac)
	}
}

// TestResilienceStragglerReDispatch: under a heavy straggler regime the
// re-dispatch policy must deliver more completed writes than riding the
// slowdown out.
func TestResilienceStragglerReDispatch(t *testing.T) {
	base := ResilienceConfig{
		Backend:       datastore.NodeLocal,
		StragglerMTBS: 15, StragglerFactor: 8, StragglerDurS: 10,
	}
	ride := checked(t, RunResilienceChecked, base)
	red := base
	red.ReDispatchStragglers = true
	moved := checked(t, RunResilienceChecked, red)
	if ride.Writes >= moved.Writes {
		t.Fatalf("re-dispatch did not help: %d writes vs %d riding it out", moved.Writes, ride.Writes)
	}
}

// TestResilienceOutageDefersStaging: transient datastore outages reduce
// completed staging traffic — and checkpoint traffic, which must not
// start against a backend that is down — without crashing anything.
func TestResilienceOutageDefersStaging(t *testing.T) {
	healthy := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis})
	out := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis, OutageMTBS: 10, OutageDurS: 2})
	if out.Crashes != 0 {
		t.Fatalf("outage run crashed nodes: %+v", out)
	}
	if out.Writes >= healthy.Writes {
		t.Fatalf("outages did not defer staging: %d writes vs healthy %d", out.Writes, healthy.Writes)
	}
	ckHealthy := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis, CkptIntervalS: 2})
	ckOut := checked(t, RunResilienceChecked, ResilienceConfig{Backend: datastore.Redis, CkptIntervalS: 2,
		OutageMTBS: 10, OutageDurS: 2})
	if ckOut.CkptWrites == 0 || ckOut.CkptWrites >= ckHealthy.CkptWrites {
		t.Fatalf("outages did not defer checkpoints: %d commits vs healthy %d",
			ckOut.CkptWrites, ckHealthy.CkptWrites)
	}
}

// TestCrashDuringRestoreChargesNoExtraWaste: a second crash landing
// while the post-repair restore read is still running must not
// re-charge the work already charged at the first crash (no compute has
// accrued in between).
func TestCrashDuringRestoreChargesNoExtraWaste(t *testing.T) {
	env := des.NewEnv()
	spec := cluster.Aurora(2)
	model := costmodel.New(env, spec, costmodel.Default())
	fs := &resFaultState{
		model:   model,
		rec:     faults.Recovery{Policy: faults.CheckpointRestart, CkptIntervalS: 50, CkptSizeMB: 8},
		backend: datastore.Redis, sizeMB: 8, horizon: 100,
		byNodeW: make([][]*resSimWriter, spec.Nodes),
		byNodeR: make([][]*resAIReader, spec.Nodes),
	}
	fs.inj = faults.New(env, spec, faults.Profile{}, faults.Hooks{})
	var wt stats.Welford
	var tput stats.Throughput
	var wasted, ckptTotal float64
	var ckptWrites int64
	samples := []float64{}
	w := &resSimWriter{}
	initResSimWriter(w, env, fs, 0, 0.5, 8e6, &wt, &tput, &samples,
		&wasted, &ckptWrites, &ckptTotal, 0)
	env.At(10, w.onCrash)
	env.At(11, w.onRepair)    // restore read begins (~20 ms)
	env.At(11.001, w.onCrash) // crash mid-restore
	env.At(12, w.onRepair)    // recover for good
	env.RunUntil(40)
	env.Shutdown()
	// Only the first crash charges: 10 s since lastCommit(0). The
	// mid-restore crash accrued no work.
	if wasted != 10 {
		t.Fatalf("wasted = %v, want exactly 10 (second crash double-charged)", wasted)
	}
}

// TestReDispatchAbandonsInFlightCheckpoint: migrating a rank off a
// straggling node while its checkpoint write is in flight must abandon
// that write — rebinding the transfer objects would otherwise orphan
// the only Abort handle, and a crash right after the migration would
// let the dead claim commit a phantom checkpoint (ckptDone firing for
// a down rank).
func TestReDispatchAbandonsInFlightCheckpoint(t *testing.T) {
	env := des.NewEnv()
	spec := cluster.Aurora(2)
	model := costmodel.New(env, spec, costmodel.Default())
	fs := &resFaultState{
		model: model,
		rec: faults.Recovery{Policy: faults.CheckpointRestart, CkptIntervalS: 5,
			CkptSizeMB: 8, ReDispatchStragglers: true},
		backend: datastore.Redis, sizeMB: 8, horizon: 100,
		byNodeW: make([][]*resSimWriter, spec.Nodes),
		byNodeR: make([][]*resAIReader, spec.Nodes),
	}
	fs.inj = faults.New(env, spec, faults.Profile{}, faults.Hooks{})
	var wt stats.Welford
	var tput stats.Throughput
	var wasted, ckptTotal float64
	var ckptWrites int64
	samples := []float64{}
	w := &resSimWriter{}
	initResSimWriter(w, env, fs, 0, 0.5, 8e6, &wt, &tput, &samples,
		&wasted, &ckptWrites, &ckptTotal, 0)
	// The first cadence tick starts a checkpoint write at t=5; 1 ms into
	// it the rank is re-dispatched to node 1, and 1 ms later node 1
	// crashes the rank. Neither the abandoned nor any other checkpoint
	// may commit while the rank is down.
	env.At(5.001, func() {
		if !w.ckptBusy {
			t.Fatal("checkpoint write should be in flight at t=5.001")
		}
		w.reDispatch(1)
	})
	env.At(5.002, w.onCrash)
	env.RunUntil(50)
	env.Shutdown()
	if ckptWrites != 0 {
		t.Fatalf("%d checkpoint(s) committed for a migrated-then-crashed rank", ckptWrites)
	}
	if w.lastCommit != 0 {
		t.Fatalf("lastCommit moved to %v for a crashed rank", w.lastCommit)
	}
}

// resilienceGoldenParams scale the scenario down for the golden and
// determinism tests (the grid shape is the default one).
var resilienceGoldenParams = scenario.Params{SweepIters: 150, Tenants: 4, Clock: clock.KindVirtual}

// renderResilience runs the registered scenario and renders it through
// the text reporter, the exact `-exp resilience -format text` path.
func renderResilience(t *testing.T, p scenario.Params) []byte {
	t.Helper()
	return renderText(t, "resilience", p)
}

// TestGoldenResilienceVirtual pins the resilience tables bit-for-bit:
// the whole family — injector timelines, interruption bookkeeping,
// checkpoint contention — is deterministic per seed.
func TestGoldenResilienceVirtual(t *testing.T) {
	checkGolden(t, "resilience_virtual.golden", renderResilience(t, resilienceGoldenParams))
}

// TestResilienceDeterministicAcrossRunsAndClocks: two renderings are
// byte-identical, and the scenario runs under both clock kinds (it is a
// pure-DES family: the emulation clock only tags the params) with
// identical tables.
func TestResilienceDeterministicAcrossRunsAndClocks(t *testing.T) {
	a := renderResilience(t, resilienceGoldenParams)
	b := renderResilience(t, resilienceGoldenParams)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical resilience runs rendered different bytes")
	}
	wall := resilienceGoldenParams
	wall.Clock = clock.KindWall
	c := renderResilience(t, wall)
	if !bytes.Equal(a, c) {
		t.Fatal("virtual- and wall-clock resilience tables differ")
	}
}

// TestResilienceParamsNarrowGrids: -mtbf/-ckpt collapse the sweep axes
// to {baseline, value}.
func TestResilienceParamsNarrowGrids(t *testing.T) {
	m := resilienceMTBFs(90)
	if len(m) != 2 || !math.IsInf(m[0], 1) || m[1] != 90 {
		t.Fatalf("resilienceMTBFs(90) = %v", m)
	}
	if got := resilienceMTBFs(0); len(got) != len(ResilienceMTBFs) {
		t.Fatalf("resilienceMTBFs(0) should be the default grid, got %v", got)
	}
	c := resilienceCkpts(5)
	if len(c) != 2 || c[0] != 0 || c[1] != 5 {
		t.Fatalf("resilienceCkpts(5) = %v", c)
	}
	if got := resilienceCkpts(0); len(got) != len(ResilienceCkptIntervals) {
		t.Fatalf("resilienceCkpts(0) should be the default grid, got %v", got)
	}
}
