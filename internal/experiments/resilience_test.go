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
// the fault layer: with crashes disabled and checkpointing off, ranks
// that carry the layer must replay the exact event sequence of ranks
// that do not — every shared observable bit-identical, for every
// backend. Layer attached but silent is the same run as no layer.
//
// The second profile (the Pattern 1 periods) writes every 3.25 s and
// polls every 0.633 s, so four polls in five find nothing and nextPoll
// skips them: a wake-up armed through the layer's Hold must land where
// the plain schedule call does. The third (7/3) is the pair at which the
// two rank machines this layer replaced did disagree, in the fourth digit
// on the Redis and Dragon deployments: one executed the idle polls, the
// other skipped them, and a tie between ranks on different poll clocks
// resolved the other way (nextPoll's caveat, observed).
func TestResilienceHealthyMatchesScaleOut(t *testing.T) {
	for _, periods := range []struct{ write, read int }{{10, 10}, {100, 10}, {7, 3}} {
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

// bareFaultedRank builds one staging rank with its fault layer on a bare
// Env — node 0 of two, shared Redis, 8 MB, horizon 100 s — under a
// healthy injector, so the test drives crash and repair by hand. cfg carries the recovery policy.
func bareFaultedRank(cfg ResilienceConfig, write bool, period, fresh float64) (*des.Env, *faultState, *stagingRank, *stats.Welford) {
	env := des.NewEnv()
	spec := cluster.Aurora(2)
	model := costmodel.New(env, spec, costmodel.Default())
	cfg.Backend, cfg.SizeMB, cfg.CkptSizeMB = datastore.Redis, 8, 8
	fs := newFaultState(env, spec, model, 100, cfg)
	r, xferTime := &stagingRank{}, &stats.Welford{}
	initRank(r, env, model, rankConfig{
		backend: cfg.Backend, sizeMB: cfg.SizeMB, write: write, shared: true,
		period: period, fresh: fresh, horizon: fs.horizon, bytes: 8e6,
		time: xferTime, faults: fs,
	})
	return env, fs, r, xferTime
}

// TestCrashDuringRestoreChargesNoExtraWaste: a second crash landing
// while the post-repair restore read is still running must not
// re-charge the work already charged at the first crash (no compute has
// accrued in between).
func TestCrashDuringRestoreChargesNoExtraWaste(t *testing.T) {
	env, fs, r, _ := bareFaultedRank(ResilienceConfig{CkptIntervalS: 50}, true, 0.5, 0)
	env.At(10, r.faults.onCrash)
	env.At(11, r.faults.onRepair)    // restore read begins (~20 ms)
	env.At(11.001, r.faults.onCrash) // crash mid-restore
	env.At(12, r.faults.onRepair)    // recover for good
	env.RunUntil(40)
	// Only the first crash charges: 10 s since lastCommit(0). The
	// mid-restore crash accrued no work.
	if fs.wasted != 10 {
		t.Fatalf("wasted = %v, want exactly 10 (second crash double-charged)", fs.wasted)
	}
}

// TestCrashMidTransfer: a crash that lands while a staged transfer is in
// flight. The transfer still drains through the backend, but its
// completion is stale and records nothing; a repair that arrives before
// the drain ends parks the resume behind it, and the loop re-arms once
// when the drain ends; a second crash before the drain ends leaves
// nothing armed at all. The fault layer is one piece of code for both
// rank kinds, so this is one body and two rows.
func TestCrashMidTransfer(t *testing.T) {
	for _, row := range []struct {
		name  string
		write bool
		fresh float64
	}{{"solver", true, 0}, {"trainer", false, 0.3}} {
		const first = 0.5 // the first poll; the ~15 ms transfer it starts is hit 1 ms in
		mid := func(t *testing.T) (*des.Env, *stagingRank, *stats.Welford) {
			env, _, r, xferTime := bareFaultedRank(ResilienceConfig{}, row.write, first, row.fresh)
			env.At(first+0.001, func() {
				if !r.faults.busy {
					t.Fatal("no transfer in flight 1 ms after the first poll")
				}
				r.faults.onCrash()
				if r.faults.wake.Armed() {
					t.Error("crash left the wake-up armed")
				}
			})
			env.At(first+0.002, func() {
				r.faults.onRepair()
				if !r.faults.pendResume || r.faults.wake.Armed() {
					t.Errorf("repair mid-drain: pendResume=%v armed=%v, want the resume parked and nothing armed",
						r.faults.pendResume, r.faults.wake.Armed())
				}
			})
			return env, r, xferTime
		}
		t.Run(row.name+"/repair-mid-drain", func(t *testing.T) {
			env, r, xferTime := mid(t)
			env.RunUntil(first + 0.1) // the drain is over
			if r.faults.busy || xferTime.N() != 0 {
				t.Fatalf("after the drain: busy=%v, %d transfer(s) recorded, want the stale completion to record none",
					r.faults.busy, xferTime.N())
			}
			if r.faults.pendResume || !r.faults.wake.Armed() {
				t.Fatalf("after the drain: pendResume=%v armed=%v, want the loop re-armed",
					r.faults.pendResume, r.faults.wake.Armed())
			}
			env.RunUntil(2*first + 0.1) // one period on: exactly one transfer
			if xferTime.N() != 1 || !r.faults.wake.Armed() {
				t.Fatalf("one period after the drain: %d transfer(s), armed=%v, want 1 and the loop running",
					xferTime.N(), r.faults.wake.Armed())
			}
		})
		t.Run(row.name+"/second-crash-mid-drain", func(t *testing.T) {
			env, r, xferTime := mid(t)
			env.At(first+0.003, r.faults.onCrash)
			env.RunUntil(50)
			if r.faults.busy || r.faults.pendResume || r.faults.wake.Armed() || env.Pending() != 0 {
				t.Fatalf("busy=%v pendResume=%v armed=%v pending=%d, want a down rank with nothing armed",
					r.faults.busy, r.faults.pendResume, r.faults.wake.Armed(), env.Pending())
			}
			if xferTime.N() != 0 {
				t.Fatalf("%d transfer(s) recorded by a rank that crashed mid-transfer and never came back", xferTime.N())
			}
		})
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

// TestResilienceRecoveryDerivation: a config implies checkpoint-restart
// exactly when it sets a checkpoint cadence, fail-stop otherwise, and
// only a finite positive MTBF injects crashes.
func TestResilienceRecoveryDerivation(t *testing.T) {
	if rec := (ResilienceConfig{CkptIntervalS: 4}).Recovery(); rec.Policy != faults.CheckpointRestart || rec.CkptIntervalS != 4 {
		t.Fatalf("Recovery() = %+v", rec)
	}
	if (ResilienceConfig{}).Recovery().Policy != faults.FailStop {
		t.Fatal("zero config should derive fail-stop")
	}
	if !(faults.Profile{MTBFS: 100}).CrashesEnabled() ||
		(faults.Profile{}).CrashesEnabled() || (faults.Profile{MTBFS: math.Inf(1)}).CrashesEnabled() {
		t.Fatal("Profile.CrashesEnabled wrong")
	}
}
