package des

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", env.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []float64
	for _, d := range []float64{3, 1, 2, 1.5} {
		d := d
		env.At(d, func() { got = append(got, d) })
	}
	env.Run()
	want := []float64{1, 1.5, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySequence(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.At(5, func() { got = append(got, i) })
	}
	env.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	env := NewEnv()
	env.At(10, func() {})
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	env.At(5, func() {})
}

// TestScheduleNaNPanics: a NaN time compares false against everything,
// so once queued it would silently break the heap order; it must be
// rejected like a time in the past.
func TestScheduleNaNPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
		if env.Pending() != 0 {
			t.Fatalf("rejected NaN schedule left %d events pending", env.Pending())
		}
	}()
	env.At(math.NaN(), func() {})
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("a negative delay did not panic")
		}
		if env.Pending() != 0 {
			t.Fatalf("rejected delay left %d events pending", env.Pending())
		}
	}()
	env.After(-1, func() {})
}

func TestZeroSleepYields(t *testing.T) {
	// A zero-length delay still goes through the queue, so other
	// same-time events run first, in schedule order.
	env := NewEnv()
	var order []string
	env.At(0, func() {
		order = append(order, "a1")
		env.After(0, func() { order = append(order, "a2") })
	})
	env.At(0, func() { order = append(order, "b1") })
	env.Run()
	if want := []string{"a1", "b1", "a2"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// useFor is the timed hold every Resource test below builds on: claim a
// slot of res, hold it for d virtual seconds, release it, then call then.
func useFor(env *Env, res *Resource, d float64, then func()) {
	res.Request(func() {
		env.After(d, func() {
			res.Release()
			then()
		})
	})
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		useFor(env, res, 2, func() { finish = append(finish, env.Now()) })
	}
	env.Run()
	if want := []float64{2, 4, 6}; !slices.Equal(finish, want) {
		t.Fatalf("finish times = %v, want %v (capacity-1 serialization)", finish, want)
	}
	if res.Stats().Peak != 1 {
		t.Fatalf("peak = %d, want 1", res.Stats().Peak)
	}
}

func TestResourceParallelism(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 3)
	var finish []float64
	for i := 0; i < 6; i++ {
		useFor(env, res, 5, func() { finish = append(finish, env.Now()) })
	}
	env.Run()
	// 6 jobs of 5s on 3 slots: 3 finish at 5, 3 at 10.
	if want := []float64{5, 5, 5, 10, 10, 10}; !slices.Equal(finish, want) {
		t.Fatalf("finish times = %v, want %v", finish, want)
	}
	if res.Stats().Peak != 3 {
		t.Fatalf("peak = %d, want 3", res.Stats().Peak)
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		env.At(float64(i)*0.1, func() {
			res.Request(func() {
				order = append(order, i)
				env.After(1, res.Release)
			})
		})
	}
	env.Run()
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("grant order = %v, want FIFO", order)
	}
}

func TestResourceWaitAccounting(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	// Three 2s holds requested at t=0: waits are 0, 2 and 4 seconds.
	for i := 0; i < 3; i++ {
		useFor(env, res, 2, func() {})
	}
	env.Run()
	if got, want := res.Stats(), (QueueStats{Cap: 1, Peak: 1, Grants: 3, WaitS: 6}); got != want {
		t.Fatalf("stats = %+v, want %+v (waits 0+2+4)", got, want)
	}
	if avg := res.Stats().AvgWaitS(); avg != 2 {
		t.Fatalf("avg wait = %v, want 2", avg)
	}
}

func TestResourceWaitAccountingUncontended(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	useFor(env, res, 1, func() {})
	env.At(5, func() { useFor(env, res, 1, func() {}) })
	env.Run()
	if s := res.Stats(); s != (QueueStats{Cap: 2, Peak: 1, Grants: 2}) || s.AvgWaitS() != 0 {
		t.Fatalf("uncontended: stats %+v avg=%v, want 2 grants, peak 1, no wait", s, s.AvgWaitS())
	}
}

func TestResourceWaitAccountingFlatRequests(t *testing.T) {
	// Immediate and queued grants share the accounting: two immediate
	// grants, one queued 3s.
	env := NewEnv()
	res := NewResource(env, 2)
	hold := func() { env.After(3, res.Release) }
	res.Request(hold)
	res.Request(hold)
	res.Request(hold)
	env.Run()
	if got, want := res.Stats(), (QueueStats{Cap: 2, Peak: 2, Grants: 3, WaitS: 3}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	res.Release()
}

func TestResourceBadCapacityPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewResource(env, 0)
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.At(1, func() { fired++ })
	env.At(5, func() { fired++ })
	env.At(10, func() { fired++ })
	env.RunUntil(5)
	if fired != 2 {
		t.Fatalf("fired = %d at horizon 5, want 2", fired)
	}
	if env.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", env.Pending())
	}
	env.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after full run, want 3", fired)
	}
}

// TestStopAndResume is Stop's documented contract: the queue survives a
// Stop, and the next Run or RunUntil continues from it.
func TestStopAndResume(t *testing.T) {
	env := NewEnv()
	var log []float64
	var tick func()
	tick = func() {
		log = append(log, env.Now())
		if env.Now() == 2 || env.Now() == 3 {
			env.Stop()
		}
		if len(log) < 5 {
			env.After(1, tick)
		}
	}
	env.After(1, tick)
	env.Run()
	if len(log) != 2 || env.Pending() != 1 {
		t.Fatalf("%d ticks before the stop with %d pending, want 2 and 1", len(log), env.Pending())
	}
	env.RunUntil(10)
	if len(log) != 3 || env.Pending() != 1 {
		t.Fatalf("%d ticks at the second stop with %d pending, want 3 and 1", len(log), env.Pending())
	}
	if end := env.Run(); len(log) != 5 || end != 5 || env.Pending() != 0 {
		t.Fatalf("%d ticks after the last Run, ending at t=%v with %d pending; want 5, 5, 0", len(log), end, env.Pending())
	}
}

// job is one claimant of the seeded contention workloads: it arrives at
// start and holds a slot for hold seconds.
type job struct{ start, hold float64 }

func seededJobs(seed int64, n int, span float64) []job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{start: rng.Float64() * span, hold: rng.Float64()}
	}
	return jobs
}

// completions runs jobs through a resource of the given capacity on a
// fresh Env and returns their completion times in firing order.
func completions(jobs []job, capacity int) []float64 {
	env := NewEnv()
	res := NewResource(env, capacity)
	var trace []float64
	for _, j := range jobs {
		env.At(j.start, func() {
			useFor(env, res, j.hold, func() { trace = append(trace, env.Now()) })
		})
	}
	env.Run()
	return trace
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// Identical seeded workloads must produce identical traces.
	jobs := seededJobs(7, 50, 10)
	if a, b := completions(jobs, 2), completions(jobs, 2); len(a) != len(jobs) || !slices.Equal(a, b) {
		t.Fatalf("traces of one workload differ (or lost jobs): %v vs %v", a, b)
	}
}

func TestPropertySleepAccumulates(t *testing.T) {
	// Property: a chain of n delays d_i ends at sum(d_i), for arbitrary
	// non-negative durations.
	f := func(raw []uint16) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		env := NewEnv()
		var want float64
		ds := make([]float64, len(raw))
		for i, r := range raw {
			ds[i] = float64(r) / 100.0
			want += ds[i]
		}
		i := 0
		var step func()
		step = func() {
			if i < len(ds) {
				i++
				env.After(ds[i-1], step)
			}
		}
		step()
		return env.Run() == want && i == len(ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyResourceNeverExceedsCapacity(t *testing.T) {
	f := func(rawCap uint8, holds []uint8) bool {
		capacity := int(rawCap%8) + 1
		if len(holds) > 40 {
			holds = holds[:40]
		}
		env := NewEnv()
		res := NewResource(env, capacity)
		done := 0
		for _, h := range holds {
			useFor(env, res, float64(h%50)/10, func() { done++ })
		}
		env.Run()
		s := res.Stats()
		return s.Peak <= capacity && done == len(holds) && s.InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.At(float64(j%17), func() {})
		}
		env.Run()
	}
}

// TestShutdownIdempotentOnDrainedEnv: Shutdown on an empty queue, twice,
// is a no-op, and the environment can still report on itself.
func TestShutdownIdempotentOnDrainedEnv(t *testing.T) {
	env := NewEnv()
	env.After(1, func() {})
	env.Run()
	env.Shutdown()
	env.Shutdown()
	if _, ok := env.NextT(); ok || env.Pending() != 0 || env.Now() != 1 {
		t.Fatalf("after Shutdown: pending=%d now=%v", env.Pending(), env.Now())
	}
}
