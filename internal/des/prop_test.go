package des

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Property-based coverage of the engine's core invariant: the run queue
// fires events in exactly (time, schedule order), and every scheduled
// event fires exactly once. The oracle is exact: the schedule log,
// stably sorted by time, must equal the firing sequence id for id. The
// generator builds randomized schedules — including events that schedule
// more events from inside their own callbacks, the shape every rank
// machine in this repo has — across 1k seeds and every way the harnesses
// drive an Env (Run, RunUntil windows, Stop and Run again), and past the
// depth at which the queue turns on its delay lanes;
// FuzzHeapOrder feeds the same checker from arbitrary byte strings so
// `go test -fuzz` can walk the queue into corners the seeded generator
// never reaches.

// firing is one observed event execution.
type firing struct {
	id  int     // index of the Schedule call that queued the event
	now float64 // Env.Now() inside the callback
}

// How orderRun drives its environment.
const (
	driveRun     = iota // one Run call
	driveWindows        // RunUntil windows from NextT, as a paused-and-resumed horizon does
	driveStop           // handlers call Stop; the driver calls Run again until drained
	driveModes
)

// orderRun is one randomized schedule and the model it is checked
// against: times[id] is the time given to the id-th Schedule call, so
// the slice index is the global schedule order the engine must break
// ties with.
type orderRun struct {
	t          *testing.T
	env        *Env
	offsets    []float64
	chainEvery int
	drive      int
	delays     []float64 // if set, every chained follow-up is now + one of these
	times      []float64
	done       []bool
	fired      []firing
}

// runSchedule schedules events at the given offsets (each a delay from
// time zero; negative values are clamped to zero), with every
// chainEvery-th event scheduling follow-ups from inside its callback —
// drawn from delays when it is set — drives the environment to
// completion in the given mode and checks the firing sequence against
// the exact (t, schedule index) order.
func runSchedule(t *testing.T, offsets []float64, chainEvery, drive int, delays []float64) *orderRun {
	t.Helper()
	r := &orderRun{t: t, env: NewEnv(), offsets: offsets, chainEvery: chainEvery, drive: drive, delays: delays}
	for _, off := range offsets {
		if off < 0 {
			off = 0
		}
		r.add(off)
	}
	env := r.env
	switch drive {
	case driveRun:
		env.Run()
	case driveWindows:
		for {
			r.checkQueue("between windows")
			floor, ok := env.NextT()
			if !ok {
				break
			}
			env.RunUntil(floor + 0.5) // fires the floor, includes the bound
		}
	case driveStop:
		env.Run()
		for env.Pending() > 0 {
			r.checkQueue("stopped")
			env.Run()
		}
	}
	r.checkQueue("after the run")
	r.checkOrder()
	return r
}

// add schedules one more event and records it in the model.
func (r *orderRun) add(at float64) {
	id := len(r.times)
	r.times = append(r.times, at)
	r.done = append(r.done, false)
	r.env.At(at, func() { r.fire(id) })
}

// fire is every event's handler.
func (r *orderRun) fire(id int) {
	env := r.env
	now := env.Now()
	r.fired = append(r.fired, firing{id: id, now: now})
	r.done[id] = true
	if id%3 == 0 {
		// Only some handlers look: NextT fills a vacated root, and the
		// others must leave it for their own pushes to take.
		r.checkQueue("inside a handler")
	}
	if r.drive == driveStop && id%4 == 1 {
		env.Stop()
	}
	if r.chainEvery == 0 || id%r.chainEvery != r.chainEvery-1 || len(r.times) >= 4*len(r.offsets) {
		return
	}
	if n := len(r.delays); n > 0 {
		// Two follow-ups from the alphabet: a shared delay queues in its
		// lane, 0 lands on this instant, slot mates collide.
		r.add(now + r.delays[id%n])
		r.add(now + r.delays[id/n%n])
		return
	}
	at := r.times[id]
	later := now + math.Abs(at-math.Floor(at)) + 0.25
	switch (id / r.chainEvery) % 4 {
	case 0: // strictly later, as every periodic rank machine does
		r.add(later)
	case 1: // this instant: onto the run being drained, or a new run if it just emptied
		r.add(now)
	case 2: // a time some other event was given: joins that run if it is still open
		if other := r.offsets[id%len(r.offsets)]; other >= now {
			r.add(other)
		} else {
			r.add(now)
		}
	case 3: // two new times: the first may take a vacated root, the second cannot
		r.add(later)
		r.add(later + 0.125)
	}
}

// checkQueue compares Pending and NextT with the model.
func (r *orderRun) checkQueue(where string) {
	r.t.Helper()
	pending, next := 0, math.Inf(1)
	for id, at := range r.times {
		if !r.done[id] {
			pending++
			next = math.Min(next, at)
		}
	}
	if got := r.env.Pending(); got != pending {
		r.t.Fatalf("%s: Pending() = %d, model has %d", where, got, pending)
	}
	got, ok := r.env.NextT()
	if ok != (pending > 0) || (ok && got != next) {
		r.t.Fatalf("%s: NextT() = %v, %v; model has %d pending, earliest %v", where, got, ok, pending, next)
	}
}

// checkOrder asserts the firing sequence is the schedule log sorted by
// (t, schedule index) — which also makes every event fire exactly once —
// and that each callback observed its own schedule time, sign of zero
// included.
func (r *orderRun) checkOrder() {
	r.t.Helper()
	if len(r.fired) != len(r.times) {
		r.t.Fatalf("scheduled %d events, fired %d (lost or duplicated)", len(r.times), len(r.fired))
	}
	want := make([]int, len(r.times))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return r.times[want[a]] < r.times[want[b]] })
	for i, f := range r.fired {
		if f.id != want[i] {
			r.t.Fatalf("firing %d is event %d (t=%v), want event %d (t=%v)",
				i, f.id, r.times[f.id], want[i], r.times[want[i]])
		}
		if at := r.times[f.id]; f.now != at || math.Signbit(f.now) != math.Signbit(at) {
			r.t.Fatalf("firing %d: callback observed Now()=%v, scheduled at %v", i, f.now, at)
		}
	}
}

// slotMates returns n distinct positive times that all map to one slot
// of the run table, so runs for them keep evicting each other; as
// delays, they share one lane slot.
func slotMates(n, slot int) []float64 {
	var mates []float64
	for k := 1; len(mates) < n; k++ {
		if at := float64(k) / 8; runSlot(at) == slot {
			mates = append(mates, at)
		}
	}
	return mates
}

// laneAlphabet is the delay alphabet of the lane shape: 0 (this
// instant), one delay many runs share, a delay that does not round-trip
// through now + d − now, and two delays whose bits share a lane slot.
func laneAlphabet() []float64 {
	mates := slotMates(2, runSlot(0.75)^1)
	return []float64{0, 0.75, 0.1, mates[0], mates[1]}
}

// TestHeapOrderRandomSchedules is the 1k-seed property test: randomized
// schedules must fire in exact (t, schedule index) order under every
// drive mode. Shapes: the original uniform / small-grid / clustered mix;
// more distinct pending times than the run table has slots; times
// crafted to share one table slot; signed zeros; and a queue that
// crosses the lane depth mid-run, its follow-ups drawn from
// laneAlphabet, so lane appends, slot collisions, promotions and the
// lazy enable all meet the sort-based reference.
func TestHeapOrderRandomSchedules(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		shape := rng.Intn(9)
		switch shape {
		case 4:
			n = 2*runSlots + rng.Intn(3*runSlots)
		case 8:
			n = laneDepth - 8 + rng.Intn(8) // below the depth until the follow-ups pile up
		}
		mates := slotMates(2+rng.Intn(3), rng.Intn(runSlots))
		offsets := make([]float64, n)
		for i := range offsets {
			switch shape {
			case 4: // up to 200 distinct times pending at once, with ties
				offsets[i] = float64(rng.Intn(200)) * 0.125
			case 5: // a few times in one table slot, interleaved
				offsets[i] = mates[rng.Intn(len(mates))]
			case 6: // signed zeros among a few other instants
				offsets[i] = []float64{0, negZero, negZero, 0, 0.5, 1}[rng.Intn(6)]
			case 8: // one unit of scattered instants, one in eight a tie
				offsets[i] = rng.Float64()
				if i > 0 && rng.Intn(8) == 0 {
					offsets[i] = offsets[rng.Intn(i)]
				}
			default:
				switch rng.Intn(3) {
				case 0: // uniform spread
					offsets[i] = rng.Float64() * 100
				case 1: // heavy ties: small integer grid
					offsets[i] = float64(rng.Intn(8))
				default: // clustered near one instant
					offsets[i] = 50 + rng.Float64()*1e-9
				}
			}
		}
		chain := 0
		if rng.Intn(2) == 0 {
			chain = 1 + rng.Intn(5)
		}
		if shape != 8 {
			runSchedule(t, offsets, chain, rng.Intn(driveModes), nil)
			continue
		}
		r := runSchedule(t, offsets, 1, rng.Intn(driveModes), laneAlphabet())
		if r.env.lanes == nil || len(r.env.lanes.pool) < 2 {
			t.Fatalf("seed %d: the lane shape never queued a run in a lane", seed)
		}
	}
}

// TestHeapTieOrderIsScheduleOrder pins the tie-break: events scheduled
// at one identical time fire in exactly the order they were scheduled,
// chained follow-ups included.
func TestHeapTieOrderIsScheduleOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := 2 + rng.Intn(40)
		offsets := make([]float64, n)
		at := rng.Float64() * 10
		for i := range offsets {
			offsets[i] = at
		}
		runSchedule(t, offsets, int(seed%3), driveRun, nil)
	}
}

// TestHoldCancelDoesNotPerturbOrder checks the Hold contract: arming,
// cancelling and re-arming holds interleaved with plain events leaves
// the surviving events' order and count intact.
func TestHoldCancelDoesNotPerturbOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x401d))
		env := NewEnv()
		var fired []float64
		plain := 1 + rng.Intn(20)
		for i := 0; i < plain; i++ {
			at := rng.Float64() * 20
			env.At(at, func() { fired = append(fired, at) })
		}
		holds := make([]*Hold, 1+rng.Intn(8))
		holdFired := 0
		for i := range holds {
			holds[i] = NewHold(env, func() { holdFired++ })
			holds[i].After(rng.Float64() * 20)
		}
		cancelled := 0
		for _, h := range holds {
			if rng.Intn(2) == 0 {
				h.Cancel()
				cancelled++
				if rng.Intn(2) == 0 {
					h.After(rng.Float64() * 20) // re-arm after cancel
					cancelled--
				}
			}
		}
		env.Run()
		if holdFired != len(holds)-cancelled {
			t.Fatalf("seed %d: %d holds armed, %d cancelled, fired %d",
				seed, len(holds), cancelled, holdFired)
		}
		if len(fired) != plain {
			t.Fatalf("seed %d: cancellation perturbed plain events: %d of %d fired",
				seed, len(fired), plain)
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("seed %d: plain events out of order", seed)
			}
		}
	}
}

// TestWithdrawPreservesFIFO checks the withdrawal contract: withdrawn
// claimants vanish from the FIFO without consuming a grant or skewing
// the wait accounting of the survivors.
func TestWithdrawPreservesFIFO(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x9a27))
		env := NewEnv()
		r := NewResource(env, 1)
		var order []int32
		// Holder keeps the slot busy until t=10.
		r.Request(func() { env.At(10, r.Release) })
		n := 2 + rng.Intn(10)
		claimant := fifoClaimant{env: env, r: r, order: &order}
		withdraw := map[int32]bool{}
		for i := int32(0); i < int32(n); i++ {
			r.RequestRow(&claimant, i)
			if rng.Intn(3) == 0 {
				withdraw[i] = true
			}
		}
		for i := range withdraw {
			if !r.Withdraw(&claimant, i) {
				t.Fatalf("seed %d: queued claim %d refused Withdraw", seed, i)
			}
			if r.Withdraw(&claimant, i) {
				t.Fatalf("seed %d: claim %d withdrawn twice", seed, i)
			}
		}
		env.Run()
		var want []int32
		for i := int32(0); i < int32(n); i++ {
			if !withdraw[i] {
				want = append(want, i)
			}
		}
		if !slices.Equal(order, want) {
			t.Fatalf("seed %d: FIFO broken: got %v, want %v", seed, order, want)
		}
		// Every claim queued at 0; the k-th survivor is granted at 10+k.
		wantWait := 0.0
		for k := range want {
			wantWait += float64(10 + k)
		}
		if s := r.Stats(); s.Grants != int64(1+len(want)) || s.WaitS != wantWait || s.Waiting != 0 {
			t.Fatalf("seed %d: %d grants, %v s waited, %d waiting, want %d, %v s and 0",
				seed, s.Grants, s.WaitS, s.Waiting, 1+len(want), wantWait)
		}
		for _, i := range want {
			if r.Withdraw(&claimant, i) {
				t.Fatalf("seed %d: granted claim %d withdrawn", seed, i)
			}
		}
	}
}

// fifoClaimant records the rows it is granted and holds each slot for
// one second.
type fifoClaimant struct {
	env   *Env
	r     *Resource
	order *[]int32
}

func (c *fifoClaimant) Fire(row int32) {
	*c.order = append(*c.order, row)
	c.env.At(c.env.Now()+1, c.r.Release)
}

// FuzzResourceWithdraw runs byte-decoded sequences of requests,
// withdrawals, releases and clock advances against a Resource and a
// reference FIFO slice that keeps withdrawn claims as dead entries until
// a release drains them. The first byte sets the capacity (1-4); each
// later byte is an operation (low two bits) and its argument (the rest):
// a request of the next id, a withdrawal of id arg (one never requested,
// granted, queued or already withdrawn), a release when a slot is held,
// or an advance of the clock by arg/8 s. After every operation the grant
// order, Withdraw's answer and every field of Stats must agree.
// CI runs this as a 10 s smoke (`go test -fuzz=FuzzResourceWithdraw
// -fuzztime=10s ./internal/des`).
func FuzzResourceWithdraw(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 1, 5, 2, 2, 2})        // cap 1: the holder refuses, the first queued withdraws
	f.Add([]byte{1, 0, 0, 0, 0, 7, 3, 9, 2, 2, 2})  // cap 2: two queue, wait, the first withdraws
	f.Add([]byte{0, 0, 0, 0, 0, 11, 9, 9, 2, 2, 2}) // cap 1: wait, a tombstone refuses a second withdrawal
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		env := NewEnv()
		capacity := 1 + int(data[0])%4
		r := NewResource(env, capacity)
		type claim struct {
			id   int32
			enqT float64
			dead bool
		}
		var (
			log, want grantLog
			queue     []claim
			inUse     int
			peak      int
			grants    int64
			waitTotal float64
			next      int32
		)
		for step, b := range data[1:] {
			op, arg := b&3, int32(b>>2)
			switch op {
			case 0: // request
				if inUse < capacity {
					inUse++
					peak = max(peak, inUse)
					grants++
					want = append(want, next)
				} else {
					queue = append(queue, claim{id: next, enqT: env.Now()})
				}
				r.RequestRow(&log, next)
				next++
			case 1: // withdraw
				ok := false
				for i := range queue {
					if queue[i].id == arg && !queue[i].dead {
						queue[i].dead, ok = true, true
						break
					}
				}
				if got := r.Withdraw(&log, arg); got != ok {
					t.Fatalf("step %d: Withdraw(%d) = %v, want %v", step, arg, got, ok)
				}
			case 2: // release
				if inUse == 0 {
					continue
				}
				for len(queue) > 0 && queue[0].dead {
					queue = queue[1:]
				}
				if len(queue) > 0 {
					grants++
					waitTotal += env.Now() - queue[0].enqT
					want = append(want, queue[0].id)
					queue = queue[1:]
				} else {
					inUse--
				}
				r.Release()
			case 3: // advance
				env.At(env.Now()+float64(arg)/8, func() {})
			}
			env.Run()
			if !slices.Equal(log, want) {
				t.Fatalf("step %d: granted %v, want %v", step, log, want)
			}
			want := QueueStats{Cap: capacity, InUse: inUse, Peak: peak, Waiting: len(queue), Grants: grants, WaitS: waitTotal}
			if got := r.Stats(); got != want {
				t.Fatalf("step %d: stats %+v, want %+v", step, got, want)
			}
		}
	})
}

// FuzzHeapOrder drives the order oracle from arbitrary bytes: each
// 2-byte group becomes one event offset (coarse 0-255 grid plus a fine
// fraction, maximizing tie pressure; the pair 255,255 is -0.0), and the
// final byte selects the chaining density, the drive mode and whether
// follow-ups come from laneAlphabet. CI runs this as a 30 s smoke
// (`go test -fuzz=FuzzHeapOrder -fuzztime=30s ./internal/des`).
func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{255, 1, 255, 2, 255, 3, 0})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{0, 0, 255, 255, 0, 0, 255, 255, 0, 128, 8})    // signed zeros, windows
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 13}) // alternating times, Stop and re-Run
	// The lane shape: distinct offsets in one unit, just below the lane
	// depth, every event chaining two follow-ups from the alphabet, under
	// each drive mode.
	for _, ctl := range []byte{18 + 1, 18 + 6 + 1, 18 + 12 + 1} {
		var data []byte
		for i := 0; i < laneDepth-8; i++ {
			data = append(data, 0, byte(4*i))
		}
		f.Add(append(data, ctl))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		chain, drive := 0, driveRun
		var delays []float64
		if len(data) > 0 {
			ctl := int(data[len(data)-1])
			chain, drive = ctl%6, ctl/6%driveModes
			if ctl/18%2 == 1 {
				delays = laneAlphabet()
			}
			data = data[:len(data)-1]
		}
		var offsets []float64
		for i := 0; i+1 < len(data); i += 2 {
			if data[i] == 255 && data[i+1] == 255 {
				offsets = append(offsets, math.Copysign(0, -1))
				continue
			}
			offsets = append(offsets, float64(data[i])+float64(data[i+1])/256)
		}
		if len(offsets) == 0 {
			return
		}
		runSchedule(t, offsets, chain, drive, delays)
	})
}
