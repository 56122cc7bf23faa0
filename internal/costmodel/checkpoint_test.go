package costmodel

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// newCkptModel builds a 2-node model for checkpoint tests.
func newCkptModel() (*des.Env, *Model) {
	env := des.NewEnv()
	return env, New(env, cluster.Aurora(2), Default())
}

func TestCheckpointWriteMatchesAnalytic(t *testing.T) {
	for _, b := range datastore.Backends() {
		env, m := newCkptModel()
		doneAt := -1.0
		op := m.NewCheckpointWrite(b, 0, 8, des.Func(func() { doneAt = env.Now() }), 0)
		op.Start()
		env.Run()
		if doneAt < 0 {
			t.Fatalf("%v: checkpoint never completed", b)
		}
		want := m.AnalyticCheckpoint(b, 8)
		if math.Abs(doneAt-want) > 1e-12 {
			t.Errorf("%v: uncontended checkpoint took %v, analytic %v", b, doneAt, want)
		}
		if op.Active() {
			t.Errorf("%v: op still active after completion", b)
		}
	}
}

func TestCheckpointReadCheaperThanWrite(t *testing.T) {
	for _, b := range datastore.Backends() {
		env, m := newCkptModel()
		var wAt, rAt float64
		w := m.NewCheckpointWrite(b, 0, 8, des.Func(func() { wAt = env.Now() }), 0)
		w.Start()
		env.Run()
		env2, m2 := newCkptModel()
		r := m2.NewCheckpointRead(b, 0, 8, des.Func(func() { rAt = env2.Now() }), 0)
		r.Start()
		env2.Run()
		if rAt >= wAt {
			t.Errorf("%v: restore read %v not cheaper than write %v", b, rAt, wAt)
		}
	}
}

// TestCheckpointAbortWhileQueued: a checkpoint whose node dies while
// queued on the shared service slots must vanish from the FIFO without
// consuming a grant, and its done must never fire.
func TestCheckpointAbortWhileQueued(t *testing.T) {
	env, m := newCkptModel()
	svc := m.sharedService(datastore.Redis)
	// Saturate every service slot until t=100.
	for i := 0; i < svc.Cap(); i++ {
		svc.Request(func() { env.After(100, svc.Release) })
	}
	fired := false
	op := m.NewCheckpointWrite(datastore.Redis, 0, 8, des.Func(func() { fired = true }), 0)
	op.Start()
	if !op.Active() {
		t.Fatal("queued op should be active")
	}
	env.After(10, op.Abort)
	env.Run()
	if fired {
		t.Fatal("aborted checkpoint's done fired")
	}
	if op.Active() {
		t.Fatal("aborted op still active")
	}
	if got := svc.Grants(); got != int64(svc.Cap()) {
		t.Fatalf("cancelled claim consumed a grant: %d grants, want %d", got, svc.Cap())
	}
}

// TestCheckpointAbortWhileHolding: aborting during the service hold
// releases the slot immediately so waiters behind it progress.
func TestCheckpointAbortWhileHolding(t *testing.T) {
	env, m := newCkptModel()
	svc := m.sharedService(datastore.Redis)
	for i := 0; i < svc.Cap()-1; i++ {
		svc.Request(func() { env.After(1000, svc.Release) })
	}
	fired := false
	op := m.NewCheckpointWrite(datastore.Redis, 0, 8, des.Func(func() { fired = true }), 0)
	op.Start() // grabs the last slot, enters the timed hold
	holdS := m.sharedHold(datastore.Redis, 8, false)
	waiterAt := -1.0
	env.After(holdS/4, func() { svc.Request(func() { waiterAt = env.Now(); svc.Release() }) })
	abortAt := holdS / 2
	env.After(abortAt, op.Abort)
	env.Run()
	if fired {
		t.Fatal("aborted checkpoint's done fired")
	}
	if math.Abs(waiterAt-abortAt) > 1e-15 {
		t.Fatalf("slot released at %v, want %v (abort time)", waiterAt, abortAt)
	}
}

// TestCheckpointAbortAfterGrantScheduled: the slot can be handed to a
// queued claim (Release → grant callback scheduled) in the same instant
// a crash aborts it — Grant.Cancel is too late. The orphaned grant must
// release the slot when it runs, and done must never fire.
func TestCheckpointAbortAfterGrantScheduled(t *testing.T) {
	env, m := newCkptModel()
	svc := m.sharedService(datastore.Redis)
	// Saturate every slot; the releases at t=5 each hand a slot straight
	// to a queued claim.
	for i := 0; i < svc.Cap(); i++ {
		svc.Request(func() { env.After(5, svc.Release) })
	}
	fired := false
	op := m.NewCheckpointWrite(datastore.Redis, 0, 8, des.Func(func() { fired = true }), 0)
	op.Start()
	// At t=5, scheduled after the releases: the slot is already granted
	// (the grant callback is in the event queue) when the abort lands.
	env.After(5, op.Abort)
	env.Run()
	if fired {
		t.Fatal("done fired for a claim aborted after grant transfer")
	}
	if svc.InUse() != 0 {
		t.Fatalf("orphaned grant leaked a slot: %d in use", svc.InUse())
	}
	// The op is reusable afterwards.
	op.Start()
	env.Run()
	if !fired {
		t.Fatal("op unusable after orphaned-grant abort")
	}
}

// TestCheckpointAbortMidTransferThenRestart: an abort during the client
// transfer discards its completion; a Start issued while the orphan
// drains begins as soon as it has.
func TestCheckpointAbortMidTransferThenRestart(t *testing.T) {
	env, m := newCkptModel()
	var doneTimes []float64
	op := m.NewCheckpointWrite(datastore.NodeLocal, 0, 8, des.Func(func() {
		doneTimes = append(doneTimes, env.Now())
	}), 0)
	full := m.AnalyticCheckpoint(datastore.NodeLocal, 8)
	op.Start()
	env.After(full/2, func() {
		op.Abort()
		op.Start() // re-checkpoint immediately; must wait for the drain
	})
	env.Run()
	if len(doneTimes) != 1 {
		t.Fatalf("done fired %d times, want 1 (restart only)", len(doneTimes))
	}
	// The restart begins when the orphaned transfer drains (at `full`),
	// then runs a full transfer.
	if want := 2 * full; math.Abs(doneTimes[0]-want) > 1e-12 {
		t.Fatalf("restarted checkpoint completed at %v, want %v", doneTimes[0], want)
	}
}

// TestCheckpointAbortIdleNoop: aborting an idle op changes nothing.
func TestCheckpointAbortIdleNoop(t *testing.T) {
	env, m := newCkptModel()
	fired := 0
	op := m.NewCheckpointWrite(datastore.Dragon, 1, 2, des.Func(func() { fired++ }), 0)
	op.Abort()
	op.Start()
	env.Run()
	if fired != 1 || op.Active() {
		t.Fatalf("after idle abort + start: fired=%d active=%v", fired, op.Active())
	}
}
