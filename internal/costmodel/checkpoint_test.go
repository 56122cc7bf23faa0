package costmodel

import (
	"math"
	"slices"
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

// newCkpt builds a one-row checkpoint write table on node 0 whose done
// runs fn.
func newCkpt(m *Model, b datastore.Backend, read bool, fn func()) *CheckpointTable {
	return m.NewCheckpointTable(b, 1, 1, 8, read, des.Func(fn))
}

func TestCheckpointWriteMatchesAnalytic(t *testing.T) {
	for _, b := range datastore.Backends() {
		env, m := newCkptModel()
		doneAt, fired := -1.0, 0
		ck := newCkpt(m, b, false, func() { doneAt = env.Now(); fired++ })
		ck.Start(0)
		env.Run()
		if fired != 1 {
			t.Fatalf("%v: checkpoint completed %d times, want once", b, fired)
		}
		want := m.AnalyticCheckpoint(b, 8)
		if math.Abs(doneAt-want) > 1e-12 {
			t.Errorf("%v: uncontended checkpoint took %v, analytic %v", b, doneAt, want)
		}
		if svc := m.sharedService(b); svc != nil {
			if st := svc.Stats(); st.InUse != 0 || st.Waiting != 0 {
				t.Errorf("%v: completed checkpoint left %d slots in use, %d claims queued", b, st.InUse, st.Waiting)
			}
		}
	}
}

func TestCheckpointReadCheaperThanWrite(t *testing.T) {
	for _, b := range datastore.Backends() {
		env, m := newCkptModel()
		var wAt, rAt float64
		newCkpt(m, b, false, func() { wAt = env.Now() }).Start(0)
		env.Run()
		env2, m2 := newCkptModel()
		newCkpt(m2, b, true, func() { rAt = env2.Now() }).Start(0)
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
	for i := 0; i < svc.Stats().Cap; i++ {
		svc.Request(func() { env.After(100, svc.Release) })
	}
	fired := false
	ck := newCkpt(m, datastore.Redis, false, func() { fired = true })
	ck.Start(0)
	if svc.Stats().Waiting != 1 {
		t.Fatalf("%d claims queued, want the checkpoint's", svc.Stats().Waiting)
	}
	env.After(10, func() { ck.Abort(0) })
	env.Run()
	if fired {
		t.Fatal("aborted checkpoint's done fired")
	}
	st := svc.Stats()
	if st.InUse != 0 || st.Waiting != 0 {
		t.Fatalf("after the run: %d slots in use, %d queued, want none", st.InUse, st.Waiting)
	}
	if st.Grants != int64(st.Cap) {
		t.Fatalf("withdrawn claim consumed a grant: %d grants, want %d", st.Grants, st.Cap)
	}
}

// TestCheckpointAbortWhileHolding: aborting during the service hold
// releases the slot immediately so waiters behind it progress.
func TestCheckpointAbortWhileHolding(t *testing.T) {
	env, m := newCkptModel()
	svc := m.sharedService(datastore.Redis)
	for i := 0; i < svc.Stats().Cap-1; i++ {
		svc.Request(func() { env.After(1000, svc.Release) })
	}
	fired := false
	ck := newCkpt(m, datastore.Redis, false, func() { fired = true })
	ck.Start(0) // grabs the last slot, enters the timed hold
	holdS := m.sharedHold(datastore.Redis, 8, false)
	waiterAt := -1.0
	env.After(holdS/4, func() { svc.Request(func() { waiterAt = env.Now(); svc.Release() }) })
	abortAt := holdS / 2
	env.After(abortAt, func() { ck.Abort(0) })
	env.Run()
	if fired {
		t.Fatal("aborted checkpoint's done fired")
	}
	if math.Abs(waiterAt-abortAt) > 1e-15 {
		t.Fatalf("slot released at %v, want %v (abort time)", waiterAt, abortAt)
	}
	if svc.Stats().InUse != 0 {
		t.Fatalf("the orphaned hold's end released a slot twice or never: %d in use", svc.Stats().InUse)
	}
}

// TestCheckpointAbortAfterGrantScheduled: the slot can be handed to a
// queued claim (Release → grant event scheduled) in the same instant a
// crash aborts it — Withdraw is too late. The orphaned grant must
// release the slot when it runs, and done must never fire.
func TestCheckpointAbortAfterGrantScheduled(t *testing.T) {
	env, m := newCkptModel()
	svc := m.sharedService(datastore.Redis)
	// Saturate every slot; the releases at t=5 each hand a slot straight
	// to a queued claim.
	for i := 0; i < svc.Stats().Cap; i++ {
		svc.Request(func() { env.After(5, svc.Release) })
	}
	fired := false
	ck := newCkpt(m, datastore.Redis, false, func() { fired = true })
	ck.Start(0)
	// At t=5, scheduled after the releases: the slot is already granted
	// (the grant event is in the event queue) when the abort lands.
	env.After(5, func() { ck.Abort(0) })
	env.Run()
	if fired {
		t.Fatal("done fired for a claim aborted after grant transfer")
	}
	if svc.Stats().InUse != 0 {
		t.Fatalf("orphaned grant leaked a slot: %d in use", svc.Stats().InUse)
	}
	// The row is reusable afterwards.
	ck.Start(0)
	env.Run()
	if !fired {
		t.Fatal("row unusable after orphaned-grant abort")
	}
}

// TestCheckpointAbortMidTransferThenRestart: an abort during the client
// transfer discards its completion; a Start issued while the orphan
// drains begins as soon as it has.
func TestCheckpointAbortMidTransferThenRestart(t *testing.T) {
	env, m := newCkptModel()
	var doneTimes []float64
	ck := newCkpt(m, datastore.NodeLocal, false, func() { doneTimes = append(doneTimes, env.Now()) })
	full := m.AnalyticCheckpoint(datastore.NodeLocal, 8)
	ck.Start(0)
	env.After(full/2, func() {
		ck.Abort(0)
		ck.Start(0) // re-checkpoint immediately; must wait for the drain
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

// TestCheckpointAbortIdleNoop: aborting an idle row changes nothing, on
// a table of one row per node whose row 1 is node 1's.
func TestCheckpointAbortIdleNoop(t *testing.T) {
	env, m := newCkptModel()
	done := &rowLog{env: env}
	ck := m.NewCheckpointTable(datastore.Dragon, 2, 1, 2, false, done)
	ck.Abort(1)
	ck.Start(1)
	env.Run()
	if len(done.rows) != 1 || done.rows[0] != 1 {
		t.Fatalf("after idle abort + start: done fired for rows %v, want [1]", done.rows)
	}
}

// TestCheckpointRowsShareTheirNodeBus: a table's rows sit perNode to a
// node and hold their node's bus, as a one-row table at that node does:
// with one bus slot per node, two rows of a node run one after the
// other, while a row of the other node runs alongside them.
func TestCheckpointRowsShareTheirNodeBus(t *testing.T) {
	env := des.NewEnv()
	p := Default()
	p.NodeBusConcurrency = 1
	m := New(env, cluster.Aurora(2), p)
	done := &rowLog{env: env}
	ck := m.NewCheckpointTable(datastore.NodeLocal, 4, 2, 8, false, done)
	for row := range int32(4) {
		ck.Start(row)
	}
	env.Run()
	full := m.AnalyticCheckpoint(datastore.NodeLocal, 8)
	wantRows := []int32{0, 2, 1, 3}
	wantAt := []float64{full, full, 2 * full, 2 * full}
	if !slices.Equal(done.rows, wantRows) {
		t.Fatalf("done fired for rows %v, want %v", done.rows, wantRows)
	}
	for i, w := range wantAt {
		if math.Abs(done.at[i]-w) > 1e-12 {
			t.Errorf("row %d done at %v, want %v", done.rows[i], done.at[i], w)
		}
	}
}

// rowLog is a Handler that records the rows it is fired with and when.
type rowLog struct {
	env  *des.Env
	rows []int32
	at   []float64
}

func (l *rowLog) Fire(row int32) {
	l.rows = append(l.rows, row)
	l.at = append(l.at, l.env.Now())
}
