package des

import (
	"math"
	"math/rand"
	"testing"
)

// --- callback fast path semantics ---

func TestAtRunsFlat(t *testing.T) {
	env := NewEnv()
	var got []float64
	env.At(2, func() { got = append(got, env.Now()) })
	env.At(1, func() { got = append(got, env.Now()) })
	env.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("At firing order/time = %v", got)
	}
}

func TestOnTriggerBeforeTrigger(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var got any
	var at float64 = -1
	ev.OnTrigger(func(v any) { got, at = v, env.Now() })
	env.At(4, func() { ev.Trigger("payload") })
	env.Run()
	if got != "payload" || at != 4 {
		t.Fatalf("OnTrigger got %v at t=%v, want payload at 4", got, at)
	}
}

func TestOnTriggerAfterTriggerIsSynchronous(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Trigger(42)
	called := false
	ev.OnTrigger(func(v any) {
		if v != 42 {
			t.Errorf("value = %v", v)
		}
		called = true
	})
	if !called {
		t.Fatal("OnTrigger on a triggered event did not run synchronously")
	}
}

func TestTriggerInterleavesProcsAndCallbacks(t *testing.T) {
	// Mixed subscribers must fire in subscription order, exactly like
	// all-proc waiters did.
	env := NewEnv()
	ev := NewEvent(env)
	var order []string
	env.Spawn("a", func(p *Proc) { p.Wait(ev); order = append(order, "proc-a") })
	env.Schedule(0, func() { ev.OnTrigger(func(any) { order = append(order, "cb-b") }) })
	env.Spawn("c", func(p *Proc) { p.Wait(ev); order = append(order, "proc-c") })
	env.At(1, func() { ev.Trigger(nil) })
	env.Run()
	want := []string{"proc-a", "cb-b", "proc-c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFuture(t *testing.T) {
	env := NewEnv()
	f := NewFuture(env)
	if f.Done() {
		t.Fatal("new future reports done")
	}
	var got any
	f.Then(func(v any) { got = v })
	env.At(3, func() { f.Complete("x") })
	env.Run()
	if !f.Done() || f.Value() != "x" || got != "x" {
		t.Fatalf("future done=%v value=%v delivered=%v", f.Done(), f.Value(), got)
	}
}

func TestFutureEventBridgesToProcs(t *testing.T) {
	env := NewEnv()
	f := NewFuture(env)
	var got any
	env.Spawn("w", func(p *Proc) { got = p.Wait(f.Event()) })
	env.At(2, func() { f.Complete(7) })
	env.Run()
	if got != 7 {
		t.Fatalf("proc waiting on future got %v", got)
	}
}

func TestAwaitAll(t *testing.T) {
	env := NewEnv()
	evs := []*Event{NewEvent(env), NewEvent(env), NewEvent(env)}
	var at float64 = -1
	AwaitAll(func() { at = env.Now() }, evs...)
	env.At(5, func() { evs[1].Trigger(nil) })
	env.At(2, func() { evs[0].Trigger(nil) })
	env.At(9, func() { evs[2].Trigger(nil) })
	env.Run()
	if at != 9 {
		t.Fatalf("AwaitAll completed at %v, want 9 (slowest)", at)
	}
}

func TestAwaitAllEmptyAndTriggered(t *testing.T) {
	env := NewEnv()
	done := false
	AwaitAll(func() { done = true })
	if !done {
		t.Fatal("AwaitAll with no events did not complete synchronously")
	}
	ev := NewEvent(env)
	ev.Trigger(nil)
	done = false
	AwaitAll(func() { done = true }, ev)
	if !done {
		t.Fatal("AwaitAll with all-triggered events did not complete synchronously")
	}
}

func TestResourceRequestInterleavesWithProcs(t *testing.T) {
	// Callback claimants and process claimants share one FIFO queue.
	env := NewEnv()
	res := NewResource(env, 1)
	var order []string
	env.Spawn("p1", func(p *Proc) { res.Use(p, 2); order = append(order, "p1") })
	env.Schedule(0, func() {
		res.UseFor(2, func() { order = append(order, "cb") })
	})
	env.Spawn("p2", func(p *Proc) { res.Use(p, 2); order = append(order, "p2") })
	env.Run()
	want := []string{"p1", "cb", "p2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
	if env.Now() != 6 {
		t.Fatalf("final time = %v, want 6 (serialized holds)", env.Now())
	}
}

func TestResourceRequestSynchronousWhenFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	called := false
	res.Request(func() { called = true })
	if !called {
		t.Fatal("Request on a free resource did not grant synchronously")
	}
	if res.InUse() != 1 {
		t.Fatalf("inUse = %d after grant", res.InUse())
	}
	res.Release()
}

// TestFlatMatchesProcSemantics runs the same randomized
// resource-contention workload twice — once with processes, once with
// flat callbacks — and requires identical completion traces. This is
// the engine-level determinism regression for the callback fast path:
// the CPS transform of a process body must replay its event order.
func TestFlatMatchesProcSemantics(t *testing.T) {
	type job struct{ start, hold float64 }
	makeJobs := func(seed int64) []job {
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]job, 60)
		for i := range jobs {
			jobs[i] = job{start: rng.Float64() * 10, hold: rng.Float64()}
		}
		return jobs
	}
	runProcs := func(jobs []job) []float64 {
		env := NewEnv()
		res := NewResource(env, 2)
		var trace []float64
		for _, j := range jobs {
			j := j
			env.SpawnAt(j.start, "job", func(p *Proc) {
				res.Use(p, j.hold)
				trace = append(trace, p.Now())
			})
		}
		env.Run()
		return trace
	}
	runFlat := func(jobs []job) []float64 {
		env := NewEnv()
		res := NewResource(env, 2)
		var trace []float64
		for _, j := range jobs {
			j := j
			env.At(j.start, func() {
				res.UseFor(j.hold, func() { trace = append(trace, env.Now()) })
			})
		}
		env.Run()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		jobs := makeJobs(seed)
		a, b := runProcs(jobs), runFlat(jobs)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFlatDeterminismAcrossRuns: identical seeded callback workloads
// must produce identical traces run-to-run.
func TestFlatDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		res := NewResource(env, 3)
		var trace []float64
		for i := 0; i < 80; i++ {
			start, hold := rng.Float64()*20, rng.Float64()
			env.At(start, func() {
				res.UseFor(hold, func() { trace = append(trace, env.Now()) })
			})
		}
		env.Run()
		return trace
	}
	a, b := run(13), run(13)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("callback traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// --- hot path microbenchmarks ---

// BenchmarkSpawnSleep measures the legacy process path: one goroutine
// per process, one channel-handoff pair per sleep.
func BenchmarkSpawnSleep(b *testing.B) {
	env := NewEnv()
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkCallbackTick measures the flat counterpart of SpawnSleep: a
// cached closure rescheduling itself. This is the engine's true hot
// path and should be allocation-free.
func BenchmarkCallbackTick(b *testing.B) {
	env := NewEnv()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			env.After(1, tick)
		}
	}
	env.At(0, tick)
	b.ResetTimer()
	env.Run()
}

// tickers starts n self-rescheduling callbacks of period 1 on env, the
// i-th first firing at phase(i), and returns the counter of fired ticks;
// the environment stops itself once the counter reaches limit.
func tickers(env *Env, n int, phase func(i int) float64, limit int) *int {
	fired := new(int)
	for i := 0; i < n; i++ {
		var tick func()
		tick = func() {
			if *fired++; *fired >= limit {
				env.Stop()
				return
			}
			env.After(1, tick)
		}
		env.At(phase(i), tick)
	}
	return fired
}

// The two regimes of the run queue (see the package doc), plus the
// deep-heap case of the benchmark's des.ns_per_event_deep probe.
var (
	tiedPhase     = func(int) float64 { return 0 }                   // every ticker wakes at the same instants
	distinctPhase = func(i int) float64 { return float64(i) / 4096 } // no two pending times are equal
)

// BenchmarkQueue measures one schedule+fire through the run queue with
// 4096 pending tickers that all tie (one run, no sifts), with 4096 that
// never tie (one run per event, the plain 4-ary heap cost), and with
// one ticker above 49152 timers that never fire (a deep heap whose root
// the ticker keeps re-taking).
func BenchmarkQueue(b *testing.B) {
	for _, c := range []struct {
		name            string
		tickers, timers int
		phase           func(int) float64
	}{
		{"ties=4096", 4096, 0, tiedPhase},
		{"distinct", 4096, 0, distinctPhase},
		{"deep-49152", 1, 49152, tiedPhase},
	} {
		b.Run(c.name, func(b *testing.B) {
			env := NewEnv()
			for i := 0; i < c.timers; i++ {
				env.At(1e15+float64(i), func() {})
			}
			tickers(env, c.tickers, c.phase, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}
}

// BenchmarkEventTrigger measures trigger+callback delivery with one
// subscriber per event.
func BenchmarkEventTrigger(b *testing.B) {
	env := NewEnv()
	sink := func(any) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewEvent(env)
		ev.OnTrigger(sink)
		ev.Trigger(nil)
		env.Run()
	}
}

// BenchmarkScheduleDrain measures raw heap push/pop throughput: 1024
// events scheduled at scattered times, then drained.
func BenchmarkScheduleDrain(b *testing.B) {
	fn := func() {}
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1024; j++ {
			env.Schedule(float64(j%31), fn)
		}
		env.Run()
	}
}

func TestResourceQueueReusesStorage(t *testing.T) {
	// The wait queue must reach a steady state with no per-grant
	// allocations: claimants recycle the consumed front of the backing
	// array (enqueue/dequeue) instead of growing it. This is the
	// multi-tenant shared-queue hot path. Each claimant caches its two
	// closures up front, per the package's reuse discipline.
	env := NewEnv()
	res := NewResource(env, 1)
	grants := 0
	type claimant struct{ grant, cycle func() }
	for i := 0; i < 8; i++ {
		c := &claimant{}
		c.cycle = func() { res.Release(); res.Request(c.grant) }
		c.grant = func() { grants++; env.After(1, c.cycle) }
		res.Request(c.grant)
	}
	env.RunUntil(64) // warm the event heap and the wait-queue array
	allocs := testing.AllocsPerRun(20, func() { env.RunUntil(env.Now() + 64) })
	if allocs > 0 {
		t.Fatalf("steady-state queue churn allocates %.1f allocs/run, want 0 (grants=%d, waiting=%d)",
			allocs, grants, res.Waiting())
	}
	if grants == 0 || res.Waiting() != 7 {
		t.Fatalf("bad accounting: grants=%d waiting=%d", grants, res.Waiting())
	}
}

// TestEventQueueReusesStorage pins the run queue's steady state: once
// the slab, its free list and the heap have grown to the working set, a
// warmed Env schedules and fires with zero allocations, whether every
// event ties with a pending one or none does.
func TestEventQueueReusesStorage(t *testing.T) {
	for name, phase := range map[string]func(int) float64{"ties": tiedPhase, "distinct": distinctPhase} {
		env := NewEnv()
		fired := tickers(env, 256, phase, math.MaxInt)
		env.RunUntil(8)
		allocs := testing.AllocsPerRun(20, func() { env.RunUntil(env.Now() + 8) })
		if allocs > 0 {
			t.Errorf("%s: steady-state scheduling allocates %.1f allocs/run, want 0", name, allocs)
		}
		if *fired == 0 || env.Pending() != 256 {
			t.Errorf("%s: fired %d ticks with %d pending, want 256 tickers still live", name, *fired, env.Pending())
		}
	}
}
