package des

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// White-box tests of the run queue's three mechanisms (see the package
// doc). prop_test.go checks the firing order they must preserve; these
// pin that each mechanism actually engages, so a change that quietly
// turns one off shows up as a test failure and not only as a slowdown.

// TestSimultaneousEventsShareOneRun: ties join the open run without
// touching the heap, and a run that lost its table slot is never
// reopened — a later push at its time starts a newer run behind it.
func TestSimultaneousEventsShareOneRun(t *testing.T) {
	env := NewEnv()
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	mates := slotMates(2, 7)
	a, b := mates[0], mates[1] // a < b, same table slot

	for i := 0; i < 100; i++ {
		env.Schedule(a, note(i))
	}
	if len(env.heap) != 1 || env.Pending() != 100 {
		t.Fatalf("100 simultaneous events: %d runs, %d pending; want 1 run, 100 pending", len(env.heap), env.Pending())
	}
	env.Schedule(b, note(100)) // evicts a's run from the table
	env.Schedule(a, note(101)) // must not rejoin it: a second run for a
	env.Schedule(a, note(102)) // joins the second run
	env.Schedule(b, note(103)) // b's run was evicted in turn: a second run for b
	if len(env.heap) != 4 {
		t.Fatalf("%d runs after alternating two times in one slot, want 4", len(env.heap))
	}
	env.Run()
	want := make([]int, 0, 104)
	for i := 0; i < 100; i++ {
		want = append(want, i)
	}
	want = append(want, 101, 102, 100, 103)
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if len(env.heap) != 0 || env.Pending() != 0 {
		t.Fatalf("drained queue holds %d runs, %d events", len(env.heap), env.Pending())
	}
}

// TestSignedZerosFireInScheduleOrder: +0.0 and -0.0 are equal times with
// different bits. They must not form two runs that both accept appends,
// and each handler must observe the zero it was scheduled at.
func TestSignedZerosFireInScheduleOrder(t *testing.T) {
	env := NewEnv()
	negZero := math.Copysign(0, -1)
	if runSlot(0) != runSlot(negZero) {
		t.Fatal("+0.0 and -0.0 map to different run-table slots")
	}
	times := []float64{0, negZero, 0, 0, negZero}
	var got []int
	for i, at := range times {
		i, at := i, at
		env.Schedule(at, func() {
			got = append(got, i)
			if math.Signbit(env.Now()) != math.Signbit(at) {
				t.Errorf("event %d scheduled at %v observed Now()=%v", i, at, env.Now())
			}
		})
	}
	env.Run()
	if !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("signed-zero events fired as %v, want schedule order", got)
	}
}

// TestVacantRootIsRetakenOrRefilled: when the root run drains, the root
// stays vacant through the handler. A push that starts a new run takes
// it; a push that joins another run, or no push at all, leaves it to be
// refilled when the handler returns; NextT and Pending read from inside
// the handler see the queue without the hole.
func TestVacantRootIsRetakenOrRefilled(t *testing.T) {
	env := NewEnv()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }

	env.Schedule(1, func() { // sole event of the root run
		got = append(got, "retake")
		if !env.vacant {
			t.Error("root not vacant inside the handler that drained its run")
		}
		env.Schedule(2.5, note("new run")) // takes the root, then sinks below t=2
		if env.vacant || len(env.heap) != 4 {
			t.Errorf("new run did not retake the root: vacant=%v, %d keys", env.vacant, len(env.heap))
		}
	})
	env.Schedule(2, func() {
		got = append(got, "join")
		env.Schedule(3, note("joined")) // t=3 is pending: no new run
		if !env.vacant {
			t.Error("a push that joined another run filled the vacant root")
		}
		if n := env.Pending(); n != 4 {
			t.Errorf("Pending() = %d inside the handler, want 4", n)
		}
		if next, ok := env.NextT(); !ok || next != 2.5 {
			t.Errorf("NextT() = %v, %v inside the handler, want 2.5", next, ok)
		}
		if env.vacant {
			t.Error("NextT left the root vacant")
		}
	})
	env.Schedule(3, note("first at 3"))
	env.Schedule(4, note("idle")) // pushes nothing: the run loop refills the root
	env.Run()
	want := []string{"retake", "join", "new run", "first at 3", "joined", "idle"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if env.vacant || len(env.heap) != 0 {
		t.Fatalf("drained queue: vacant=%v, %d keys", env.vacant, len(env.heap))
	}
}

// TestRescheduleAtNowJoinsDrainingRun: a handler that reschedules at
// Now() while its run still has events appends to that run, and fires
// after every event already queued for the instant.
func TestRescheduleAtNowJoinsDrainingRun(t *testing.T) {
	env := NewEnv()
	var got []string
	env.Schedule(1, func() {
		got = append(got, "a")
		env.Schedule(env.Now(), func() { got = append(got, "a'") })
		if len(env.heap) != 1 {
			t.Errorf("reschedule at Now() started run %d, want it appended to the draining run", len(env.heap))
		}
	})
	env.Schedule(1, func() { got = append(got, "b") })
	env.Run()
	if !slices.Equal(got, []string{"a", "b", "a'"}) {
		t.Fatalf("fired %v, want [a b a']", got)
	}
}

// TestRunFromInsideHandler: a run loop entered while the root is vacant
// (from the handler that drained it) fills the hole before reading it.
func TestRunFromInsideHandler(t *testing.T) {
	env := NewEnv()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	env.Schedule(1, func() {
		got = append(got, "outer")
		env.RunUntil(2) // nested: fires t=2 before the outer handler returns
		got = append(got, "outer done")
	})
	env.Schedule(2, note("inner"))
	env.Schedule(3, note("after"))
	env.Run()
	if want := []string{"outer", "inner", "outer done", "after"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestShutdownMidRun: Shutdown from inside a handler drops everything
// still queued — including the rest of the run being drained and a
// vacated root — and the run loop returns cleanly.
func TestShutdownMidRun(t *testing.T) {
	for _, tail := range []int{0, 3} { // shutting down from the last / not the last event of a run
		env := NewEnv()
		late := 0
		env.Schedule(1, func() { env.Shutdown() })
		for i := 0; i < tail; i++ {
			env.Schedule(1, func() { late++ })
		}
		env.Schedule(2, func() { late++ })
		env.Schedule(100, func() { late++ })
		env.Run()
		if late != 0 || env.Pending() != 0 {
			t.Fatalf("tail=%d: after mid-run Shutdown %d later events fired, %d pending", tail, late, env.Pending())
		}
		if _, ok := env.NextT(); ok {
			t.Fatalf("tail=%d: NextT reports a pending event after Shutdown", tail)
		}
	}
}

// TestSlabGrowsByChunksAndNeverMoves: the payload slab is sized by the
// deepest moment of the run, one chunk at a time; growing it leaves
// queued payloads where they are, and a drained queue reuses its slots.
func TestSlabGrowsByChunksAndNeverMoves(t *testing.T) {
	env := NewEnv()
	fired := 0
	tick := func() { fired++ }
	env.Schedule(1, tick)
	first := env.slot(1)
	const n = 3*slabChunk + 5
	for i := 1; i < n; i++ {
		env.Schedule(float64(1+i%7), tick)
	}
	wantChunks := (n + 1 + slabChunk - 1) / slabChunk // slot 0 is the sentinel
	if len(env.slab) != wantChunks {
		t.Fatalf("%d pending events hold %d chunks, want %d", n, len(env.slab), wantChunks)
	}
	if env.slot(1) != first || first.fn == nil {
		t.Fatal("growing the slab moved or lost a queued payload")
	}
	env.Run()
	for i := 0; i < n; i++ {
		env.After(float64(i%7), tick)
	}
	env.Run()
	if fired != 2*n || len(env.slab) != wantChunks {
		t.Fatalf("fired %d of %d with %d chunks, want the %d chunks reused", fired, 2*n, len(env.slab), wantChunks)
	}
}

// TestEventRecordAndEnvFootprint pins what every queued event and every
// Env costs: a 40-byte {fn, cb, val, next, kind} record — three
// pointerful fields cleared per fire — and one object per NewEnv (a
// 512-node sweep builds thousands, an LPSet one per LP).
func TestEventRecordAndEnvFootprint(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("event record is %d bytes, want 40", got)
	}
	var env *Env
	if allocs := testing.AllocsPerRun(100, func() { env = NewEnv() }); allocs != 1 {
		t.Errorf("NewEnv allocates %v objects, want 1", allocs)
	}
	_ = env
}
