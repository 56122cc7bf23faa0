package des

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// White-box tests of the run queue's four mechanisms — runs, the run
// table, the vacant root and the delay lanes (see the package doc).
// prop_test.go checks the firing order they must preserve; these pin
// that each mechanism actually engages, so a change that quietly turns
// one off shows up as a test failure and not only as a slowdown.

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
		env.At(a, note(i))
	}
	if len(env.heap) != 1 || env.Pending() != 100 {
		t.Fatalf("100 simultaneous events: %d runs, %d pending; want 1 run, 100 pending", len(env.heap), env.Pending())
	}
	env.At(b, note(100)) // evicts a's run from the table
	env.At(a, note(101)) // must not rejoin it: a second run for a
	env.At(a, note(102)) // joins the second run
	env.At(b, note(103)) // b's run was evicted in turn: a second run for b
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
		env.At(at, func() {
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

	env.At(1, func() { // sole event of the root run
		got = append(got, "retake")
		if !env.vacant {
			t.Error("root not vacant inside the handler that drained its run")
		}
		env.At(2.5, note("new run")) // takes the root, then sinks below t=2
		if env.vacant || len(env.heap) != 4 {
			t.Errorf("new run did not retake the root: vacant=%v, %d keys", env.vacant, len(env.heap))
		}
	})
	env.At(2, func() {
		got = append(got, "join")
		env.At(3, note("joined")) // t=3 is pending: no new run
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
	env.At(3, note("first at 3"))
	env.At(4, note("idle")) // pushes nothing: the run loop refills the root
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
	env.At(1, func() {
		got = append(got, "a")
		env.At(env.Now(), func() { got = append(got, "a'") })
		if len(env.heap) != 1 {
			t.Errorf("reschedule at Now() started run %d, want it appended to the draining run", len(env.heap))
		}
	})
	env.At(1, func() { got = append(got, "b") })
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
	env.At(1, func() {
		got = append(got, "outer")
		env.RunUntil(2) // nested: fires t=2 before the outer handler returns
		got = append(got, "outer done")
	})
	env.At(2, note("inner"))
	env.At(3, note("after"))
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
		env.At(1, func() { env.Shutdown() })
		for i := 0; i < tail; i++ {
			env.At(1, func() { late++ })
		}
		env.At(2, func() { late++ })
		env.At(100, func() { late++ })
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
// deepest moment of the run, doubling its chunk count per allocation;
// growing it leaves queued payloads where they are, and a drained queue
// reuses its slots.
func TestSlabGrowsByChunksAndNeverMoves(t *testing.T) {
	env := NewEnv()
	fired := 0
	tick := func() { fired++ }
	env.At(1, tick)
	first := env.slot(1)
	const n = 3*slabChunk + 5
	for i := 1; i < n; i++ {
		env.At(float64(1+i%7), tick)
	}
	wantChunks := 4 // 1, 1, 2: the power of two that holds n + the sentinel
	if len(env.slab) != wantChunks {
		t.Fatalf("%d pending events hold %d chunks, want %d", n, len(env.slab), wantChunks)
	}
	if env.slot(1) != first || first.h == nil {
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

// TestSlabAllocationsAreLogarithmic: a queue 49 152 events deep over
// 4096 times — a 4096-node cell's ranks — costs a few dozen allocations
// (slab blocks, the chunk directory, the heap and lane pool growing),
// where a chunk per allocation would cost 1 537 for the slab alone.
func TestSlabAllocationsAreLogarithmic(t *testing.T) {
	tick := func() {}
	allocs := testing.AllocsPerRun(5, func() {
		env := NewEnv()
		for i := range 49152 {
			env.At(float64(i%4096), tick)
		}
	})
	if allocs > 64 {
		t.Fatalf("a 49152-deep queue costs %v allocations, want at most 64", allocs)
	}
}

// TestEventRecordAndEnvFootprint pins what every queued event and every
// Env costs: a 24-byte {handler, row, next} record — one pointerful
// field cleared per fire — and one object per NewEnv (a 512-node sweep
// builds thousands).
func TestEventRecordAndEnvFootprint(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("event record is %d bytes, want 24", got)
	}
	var env *Env
	if allocs := testing.AllocsPerRun(100, func() { env = NewEnv() }); allocs != 1 {
		t.Errorf("NewEnv allocates %v objects, want 1", allocs)
	}
	_ = env
}

// deepEnv returns an Env whose heap holds exactly laneDepth plain runs,
// far in the future and never reached by the tests below: the lane table
// is allocated, and the next push that starts a run files it in a lane.
func deepEnv(t *testing.T) *Env {
	t.Helper()
	env := NewEnv()
	filler := func() { t.Error("a filler run fired") }
	for i := 0; i < laneDepth-1; i++ {
		env.At(1e9+float64(i), filler)
	}
	if env.lanes != nil {
		t.Fatalf("a heap of %d runs allocated the lane table", laneDepth-1)
	}
	env.At(2e9, filler)
	if env.lanes == nil || len(env.heap) != laneDepth {
		t.Fatalf("a heap of %d runs: lanes allocated=%v, %d heap keys", laneDepth, env.lanes != nil, len(env.heap))
	}
	return env
}

// waiting returns the runs queued behind the heap in lane id.
func waiting(env *Env, id int) []runKey {
	var keys []runKey
	for j := env.lanes.lanes[id].head; j != 0; j = env.lanes.pool[j].next {
		keys = append(keys, env.lanes.pool[j].key)
	}
	return keys
}

// TestLaneTableIsAllocatedAtDepth: an Env allocates its lane table the
// first time its heap grows to laneDepth runs (deepEnv checks both sides
// of that step), and never below it, however many events a shallow queue
// schedules.
func TestLaneTableIsAllocatedAtDepth(t *testing.T) {
	shallow := NewEnv()
	fired := tickers(shallow, laneDepth-1, distinctPhase, oneDelay, 100*laneDepth)
	shallow.Run()
	if *fired != 100*laneDepth || shallow.lanes != nil {
		t.Fatalf("%d tickers fired %d times and allocated lanes=%v, want no lane table", laneDepth-1, *fired, shallow.lanes != nil)
	}
	env := deepEnv(t)
	for id := range env.lanes.lanes {
		if env.lanes.lanes[id].live {
			t.Fatalf("lane %d is live before any run was filed in a lane", id)
		}
	}
}

// TestOneDelayHoldsOneHeapKey: at depth, runs created with one delay wait
// in their lane, and only the earliest is a heap key; a handler that
// drains a lane's head finds its successor already promoted to the root.
func TestOneDelayHoldsOneHeapKey(t *testing.T) {
	env := deepEnv(t)
	const spawns, d = 10, 100.0
	id := runSlot(d)
	if id == runSlot(1) {
		t.Fatal("test delays share a lane slot")
	}
	var got []float64
	var payload func()
	payload = func() {
		got = append(got, env.Now())
		if next := env.Now() + 1; next <= spawns+d {
			// The drained head's successor is at the root already: no
			// vacancy for this handler's pushes to fill.
			if env.vacant || env.heap[0].t != next || env.heap[0].lane() != id {
				t.Errorf("t=%v: root %+v (vacant=%v) after the lane head drained, want the run at %v promoted",
					env.Now(), env.heap[0], env.vacant, next)
			}
		}
	}
	var spawn func()
	spawn = func() {
		env.After(d, payload)
		if env.Now() < spawns {
			env.After(1, spawn)
		}
	}
	env.At(1, spawn)
	env.RunUntil(spawns + 0.5)
	if n := len(env.heap); n != laneDepth+1 {
		t.Fatalf("%d runs of one delay pending: %d heap keys, want the %d fillers and one lane head", spawns, n, laneDepth)
	}
	if w := waiting(env, id); len(w) != spawns-1 {
		t.Fatalf("lane of delay %v holds %d waiting runs, want %d", d, len(w), spawns-1)
	}
	env.RunUntil(1e8)
	if len(got) != spawns || got[0] != 1+d || got[spawns-1] != spawns+d {
		t.Fatalf("payloads fired at %v, want 101..110", got)
	}
	if w := waiting(env, id); len(w) != 0 || env.lanes.lanes[id].live {
		t.Fatalf("drained lane still live with %d waiting runs", len(w))
	}
}

// TestLaneSlotCollisionFallsBackToHeap: a delay whose lane slot another
// live delay holds starts a plain, untagged heap run.
func TestLaneSlotCollisionFallsBackToHeap(t *testing.T) {
	env := deepEnv(t)
	mates := slotMates(2, 11)
	a, b := mates[0], mates[1]
	var got []float64
	note := func() { got = append(got, env.Now()) }
	env.At(a, note) // claims the lane slot for delay a
	env.At(b, note) // same lane slot, other delay, later time: a plain heap run
	// b also took a's run-table slot, so this starts a second run for a,
	// and the second run queues behind the first in a's lane.
	env.At(a, note)
	tags := map[float64]int{}
	for _, k := range env.heap {
		if k.t < 1e9 {
			tags[k.t] = k.lane()
		}
	}
	if len(tags) != 2 || tags[a] != 11 || tags[b] != -1 || len(waiting(env, 11)) != 1 {
		t.Fatalf("heap lane tags %v with %d runs waiting in lane 11; want %v heading lane 11, one run behind it and %v untagged",
			tags, len(waiting(env, 11)), a, b)
	}
	env.RunUntil(1e8)
	if !slices.Equal(got, []float64{a, a, b}) {
		t.Fatalf("fired at %v, want [%v %v %v]", got, a, a, b)
	}
}

// TestLaneRefusesAnEarlierRun: equal delay bits are not enough to join a
// lane. At now = 2^-52, 2+3·2^-51 and 2+2·2^-51 both round to the
// difference 2+2·2^-51 (ties to even), so the second, earlier run matches
// the lane's bits; the t ≥ last guard must send it to the heap, and the
// two must fire in time order.
func TestLaneRefusesAnEarlierRun(t *testing.T) {
	const now, late, early = 0x1p-52, 2 + 3*0x1p-51, 2 + 2*0x1p-51
	if math.Float64bits(late-now) != math.Float64bits(early-now) {
		t.Fatalf("%v − now and %v − now differ; the test needs them bit-equal", late, early)
	}
	var got []float64
	env := NewEnv()
	env.At(now, func() {
		for i := 0; i < laneDepth; i++ { // depth, without claiming a lane
			env.At(1e9+float64(i), func() {})
		}
		env.At(late, func() { got = append(got, env.Now()) })
		env.At(early, func() { got = append(got, env.Now()) })
		id := runSlot(late - now)
		for _, k := range env.heap {
			if k.t == early && k.lane() != -1 {
				t.Errorf("the earlier run joined lane %d", k.lane())
			}
			if k.t == late && k.lane() != id {
				t.Errorf("the later run heads lane %d, want %d", k.lane(), id)
			}
		}
	})
	env.RunUntil(10)
	if !slices.Equal(got, []float64{early, late}) {
		t.Fatalf("fired at %v, want [%v %v]", got, early, late)
	}
}

// TestShutdownClearsLanes: Shutdown drops the lane table with the rest of
// the queue, and the Env runs again from a clean, shallow state.
func TestShutdownClearsLanes(t *testing.T) {
	env := deepEnv(t)
	var spawn func()
	spawn = func() { env.After(1, spawn); env.After(5, func() {}) }
	env.At(0, spawn)
	env.RunUntil(20)
	if env.lanes == nil || len(waiting(env, runSlot(5))) == 0 {
		t.Fatal("setup: no runs waiting in a lane")
	}
	env.Shutdown()
	if env.lanes != nil || env.Pending() != 0 || len(env.heap) != 0 {
		t.Fatalf("after Shutdown: lanes allocated=%v, %d pending, %d heap keys", env.lanes != nil, env.Pending(), len(env.heap))
	}
	var got []int
	env.At(env.Now()+2, func() { got = append(got, 2) })
	env.At(env.Now()+1, func() { got = append(got, 1) })
	env.Run()
	if !slices.Equal(got, []int{1, 2}) || env.lanes != nil {
		t.Fatalf("reused Env fired %v (lanes allocated=%v), want [1 2] on a shallow queue", got, env.lanes != nil)
	}
}
