package des

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
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
		env.Schedule(d, func() { got = append(got, d) })
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
		env.Schedule(5, func() { got = append(got, i) })
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
	env.Schedule(10, func() {})
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	env.Schedule(5, func() {})
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
	env.Schedule(math.NaN(), func() {})
}

func TestProcessSleep(t *testing.T) {
	env := NewEnv()
	var wake []float64
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2.5)
			wake = append(wake, p.Now())
		}
	})
	end := env.Run()
	if len(wake) != 3 {
		t.Fatalf("got %d wakeups, want 3", len(wake))
	}
	want := []float64{2.5, 5.0, 7.5}
	for i := range want {
		if wake[i] != want[i] {
			t.Fatalf("wake times = %v, want %v", wake, want)
		}
	}
	if end != 7.5 {
		t.Fatalf("final time = %v, want 7.5", end)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv()
	panicked := false
	env.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	env.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestZeroSleepYields(t *testing.T) {
	// A zero-length sleep must still yield so that other same-time
	// events run in schedule order.
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventWaitBeforeTrigger(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var got any
	var at float64
	env.Spawn("waiter", func(p *Proc) {
		got = p.Wait(ev)
		at = p.Now()
	})
	env.Spawn("trigger", func(p *Proc) {
		p.Sleep(4)
		ev.Trigger("payload")
	})
	env.Run()
	if got != "payload" || at != 4 {
		t.Fatalf("wait returned %v at t=%v, want payload at t=4", got, at)
	}
}

func TestEventWaitAfterTrigger(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var at float64 = -1
	env.Spawn("trigger", func(p *Proc) { ev.Trigger(42) })
	env.SpawnAt(3, "late", func(p *Proc) {
		if v := p.Wait(ev); v != 42 {
			t.Errorf("late wait got %v, want 42", v)
		}
		at = p.Now()
	})
	env.Run()
	if at != 3 {
		t.Fatalf("late waiter resumed at %v, want 3 (no extra delay)", at)
	}
}

func TestEventMultipleWaiters(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	woken := 0
	for i := 0; i < 5; i++ {
		env.Spawn("w", func(p *Proc) {
			p.Wait(ev)
			woken++
		})
	}
	env.SpawnAt(1, "t", func(p *Proc) { ev.Trigger(nil) })
	env.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestEventDoubleTriggerPanics(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Trigger(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double trigger did not panic")
		}
	}()
	ev.Trigger(nil)
}

func TestProcDoneEvent(t *testing.T) {
	env := NewEnv()
	var doneAt float64
	worker := env.Spawn("worker", func(p *Proc) { p.Sleep(7) })
	env.Spawn("joiner", func(p *Proc) {
		p.Wait(worker.Done())
		doneAt = p.Now()
	})
	env.Run()
	if doneAt != 7 {
		t.Fatalf("join time = %v, want 7", doneAt)
	}
}

func TestWaitAll(t *testing.T) {
	env := NewEnv()
	var procs []*Proc
	for i := 1; i <= 4; i++ {
		d := float64(i)
		procs = append(procs, env.Spawn("w", func(p *Proc) { p.Sleep(d) }))
	}
	var at float64
	env.Spawn("join", func(p *Proc) {
		p.WaitAll(procs[0].Done(), procs[1].Done(), procs[2].Done(), procs[3].Done())
		at = p.Now()
	})
	env.Run()
	if at != 4 {
		t.Fatalf("WaitAll finished at %v, want 4 (slowest)", at)
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var finish []float64
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *Proc) {
			res.Use(p, 2)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []float64{2, 4, 6}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v (capacity-1 serialization)", finish, want)
		}
	}
	if res.Peak() != 1 {
		t.Fatalf("peak = %d, want 1", res.Peak())
	}
}

func TestResourceParallelism(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 3)
	var finish []float64
	for i := 0; i < 6; i++ {
		env.Spawn("u", func(p *Proc) {
			res.Use(p, 5)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	// 6 jobs of 5s on 3 slots: 3 finish at 5, 3 at 10.
	sort.Float64s(finish)
	want := []float64{5, 5, 5, 10, 10, 10}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
	if res.Peak() != 3 {
		t.Fatalf("peak = %d, want 3", res.Peak())
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.SpawnAt(float64(i)*0.1, "u", func(p *Proc) {
			res.Acquire(p)
			order = append(order, i)
			p.Sleep(1)
			res.Release()
		})
	}
	env.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

func TestResourceWaitAccounting(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	// Three 2s holds requested at t=0: waits are 0, 2 and 4 seconds.
	for i := 0; i < 3; i++ {
		env.Spawn("u", func(p *Proc) { res.Use(p, 2) })
	}
	env.Run()
	if res.Grants() != 3 {
		t.Fatalf("grants = %d, want 3", res.Grants())
	}
	if res.TotalWaitS() != 6 {
		t.Fatalf("total wait = %v, want 6 (0+2+4)", res.TotalWaitS())
	}
	if res.AvgWaitS() != 2 {
		t.Fatalf("avg wait = %v, want 2", res.AvgWaitS())
	}
}

func TestResourceWaitAccountingUncontended(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	env.Spawn("a", func(p *Proc) { res.Use(p, 1) })
	env.SpawnAt(5, "b", func(p *Proc) { res.Use(p, 1) })
	env.Run()
	if res.Grants() != 2 || res.TotalWaitS() != 0 || res.AvgWaitS() != 0 {
		t.Fatalf("uncontended: grants=%d wait=%v avg=%v, want 2/0/0",
			res.Grants(), res.TotalWaitS(), res.AvgWaitS())
	}
}

func TestResourceWaitAccountingFlatRequests(t *testing.T) {
	// The flat callback path (Request) shares the accounting with
	// Acquire: two immediate grants, one queued 3s.
	env := NewEnv()
	res := NewResource(env, 2)
	hold := func() { env.After(3, res.Release) }
	res.Request(hold)
	res.Request(hold)
	res.Request(hold)
	env.Run()
	if res.Grants() != 3 {
		t.Fatalf("grants = %d, want 3", res.Grants())
	}
	if res.TotalWaitS() != 3 {
		t.Fatalf("total wait = %v, want 3", res.TotalWaitS())
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
	env.Schedule(1, func() { fired++ })
	env.Schedule(5, func() { fired++ })
	env.Schedule(10, func() { fired++ })
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

func TestStopAndResume(t *testing.T) {
	env := NewEnv()
	var log []float64
	env.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
			log = append(log, p.Now())
			if p.Now() == 3 {
				env.Stop()
			}
		}
	})
	env.Run()
	if len(log) != 3 {
		t.Fatalf("ticks before stop = %d, want 3", len(log))
	}
	env.Resume()
	if len(log) != 5 {
		t.Fatalf("ticks after resume = %d, want 5", len(log))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// Identical seeded workloads must produce identical traces.
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		res := NewResource(env, 2)
		var trace []float64
		for i := 0; i < 50; i++ {
			start := rng.Float64() * 10
			hold := rng.Float64()
			env.SpawnAt(start, "job", func(p *Proc) {
				res.Use(p, hold)
				trace = append(trace, p.Now())
			})
		}
		env.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPropertySleepAccumulates(t *testing.T) {
	// Property: a process performing n sleeps of durations d_i ends at
	// sum(d_i), for arbitrary non-negative durations.
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
		var got float64
		env.Spawn("s", func(p *Proc) {
			for _, d := range ds {
				p.Sleep(d)
			}
			got = p.Now()
		})
		env.Run()
		return got == want || (len(ds) == 0 && got == 0)
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
		for _, h := range holds {
			d := float64(h%50) / 10
			env.Spawn("j", func(p *Proc) { res.Use(p, d) })
		}
		env.Run()
		return res.Peak() <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.Schedule(float64(j%17), func() {})
		}
		env.Run()
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	env := NewEnv()
	env.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 50; i++ {
		env.Spawn("sleeper", func(p *Proc) {
			p.Sleep(1000) // far beyond the horizon
		})
	}
	ev := NewEvent(env)
	env.Spawn("waiter", func(p *Proc) { p.Wait(ev) }) // never triggered
	env.RunUntil(1)
	if env.Procs() != 51 {
		t.Fatalf("live procs before shutdown = %d, want 51", env.Procs())
	}
	env.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for env.Procs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("procs after shutdown = %d, want 0", env.Procs())
		}
		runtime.Gosched()
	}
	if env.Pending() != 0 {
		t.Fatalf("events after shutdown = %d", env.Pending())
	}
}

func TestShutdownWithNeverStartedProc(t *testing.T) {
	env := NewEnv()
	env.SpawnAt(100, "late", func(p *Proc) { p.Sleep(1) })
	env.RunUntil(1) // start event still queued
	env.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for env.Procs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("never-started proc survived shutdown")
		}
		runtime.Gosched()
	}
}

func TestShutdownIdempotentOnDrainedEnv(t *testing.T) {
	env := NewEnv()
	env.Spawn("quick", func(p *Proc) { p.Sleep(1) })
	env.Run()
	env.Shutdown()
	env.Shutdown()
}
