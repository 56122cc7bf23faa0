package des

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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

func TestResourceRequestSynchronousWhenFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	called := false
	res.Request(func() { called = true })
	if !called {
		t.Fatal("Request on a free resource did not grant synchronously")
	}
	if res.Stats().InUse != 1 {
		t.Fatalf("inUse = %d after grant", res.Stats().InUse)
	}
	res.Release()
}

// TestFlatMatchesProcSemantics holds a randomized resource-contention
// workload to the semantics a blocking acquire-hold-release per job has —
// a FIFO queue in front of c servers — computed below without the
// engine: jobs in arrival order, each taking the server that frees
// first. The engine's completion trace must be that schedule's, bit for
// bit, so a heap, run-table or Resource change that reorders a grant
// fails here before it reaches a harness.
func TestFlatMatchesProcSemantics(t *testing.T) {
	const servers = 2
	for seed := int64(1); seed <= 5; seed++ {
		jobs := seededJobs(seed, 60, 10)
		got := completions(jobs, servers)

		slices.SortFunc(jobs, func(a, b job) int { return cmp.Compare(a.start, b.start) })
		var freeAt [servers]float64
		var want []float64
		for _, j := range jobs {
			s := 0
			if freeAt[1] < freeAt[0] {
				s = 1
			}
			freeAt[s] = max(j.start, freeAt[s]) + j.hold
			want = append(want, freeAt[s])
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: completion trace %v, the FIFO %d-server schedule is %v", seed, got, servers, want)
		}
	}
}

// TestFlatDeterminismAcrossRuns: a second seed and shape (80 jobs on 3
// slots, mostly uncontended where TestDeterminismAcrossRuns overloads
// its 2) must also repeat run-to-run.
func TestFlatDeterminismAcrossRuns(t *testing.T) {
	jobs := seededJobs(13, 80, 20)
	if a, b := completions(jobs, 3), completions(jobs, 3); len(a) != len(jobs) || !slices.Equal(a, b) {
		t.Fatalf("traces of one workload differ (or lost jobs): %v vs %v", a, b)
	}
}

// --- hot path microbenchmarks ---

// BenchmarkCallbackTick measures a cached closure rescheduling itself:
// the engine's hot path, which should be allocation-free.
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

// tickers starts n self-rescheduling callbacks on env, the i-th first
// firing at phase(i) and then every period(i), and returns the counter of
// fired ticks; the environment stops itself once the counter reaches
// limit.
func tickers(env *Env, n int, phase, period func(i int) float64, limit int) *int {
	fired := new(int)
	for i := 0; i < n; i++ {
		var tick func()
		p := period(i)
		tick = func() {
			if *fired++; *fired >= limit {
				env.Stop()
				return
			}
			env.After(p, tick)
		}
		env.At(phase(i), tick)
	}
	return fired
}

// The regimes of the run queue (see the package doc), plus the deep-heap
// case of the benchmark's des.ns_per_event_deep probe.
var (
	tiedPhase     = func(int) float64 { return 0 }                        // every ticker wakes at the same instants
	distinctPhase = func(i int) float64 { return float64(i) / 4096 }      // no two pending times are equal
	oneDelay      = func(int) float64 { return 1 }                        // every ticker shares one delay lane
	ownDelay      = func(i int) float64 { return 1 + float64(i)/(1<<20) } // no two tickers share a delay
)

// BenchmarkQueue measures one schedule+fire through the run queue with
// 4096 pending tickers that all tie (one run, no sifts); with 4096 that
// never tie but share one period (one run per event, all in one delay
// lane: a FIFO append and a promotion per event); with 4096 that neither
// tie nor share a period (one heap run per event, the plain 4-ary heap
// cost); and with one ticker above 49152 timers that never fire (a deep
// heap whose root the ticker keeps re-taking, and whose lane slots the
// timers hold).
func BenchmarkQueue(b *testing.B) {
	for _, c := range []struct {
		name            string
		tickers, timers int
		phase, period   func(int) float64
	}{
		{"ties=4096", 4096, 0, tiedPhase, oneDelay},
		{"one-delay", 4096, 0, distinctPhase, oneDelay},
		{"distinct", 4096, 0, distinctPhase, ownDelay},
		{"deep-49152", 1, 49152, tiedPhase, oneDelay},
	} {
		b.Run(c.name, func(b *testing.B) {
			env := NewEnv()
			for i := 0; i < c.timers; i++ {
				env.At(1e15+float64(i), func() {})
			}
			tickers(env, c.tickers, c.phase, c.period, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}
}

// BenchmarkScheduleDrain measures raw heap push/pop throughput: 1024
// events scheduled at scattered times, then drained.
func BenchmarkScheduleDrain(b *testing.B) {
	fn := func() {}
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1024; j++ {
			env.At(float64(j%31), fn)
		}
		env.Run()
	}
}

func TestResourceQueueReusesStorage(t *testing.T) {
	// The wait queue must reach a steady state with no per-grant
	// allocations: claimants recycle the consumed front of the backing
	// array (Ring.Push/Pop) instead of growing it. This is the
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
			allocs, grants, res.Stats().Waiting)
	}
	if grants == 0 || res.Stats().Waiting != 7 {
		t.Fatalf("bad accounting: grants=%d waiting=%d", grants, res.Stats().Waiting)
	}
}

// grantLog is a Handler that records the rows it is fired with.
type grantLog []int32

func (g *grantLog) Fire(row int32) { *g = append(*g, row) }

// TestResourceQueueFIFOAcrossWrapAndGrowth: the wait ring grants in
// request order, skipping withdrawn claimants, while its head wraps
// past the end of the backing array and while it doubles with the
// live queue split across that end. A reference FIFO of ids decides
// every grant and every Withdraw's answer; the run must reach both ring
// states it is named after.
func TestResourceQueueFIFOAcrossWrapAndGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	env := NewEnv()
	res := NewResource(env, 1)
	var got grantLog
	var want []int32 // ids granted, in order
	type queued struct {
		id          int32
		withdrawing bool // a third of the claims may be withdrawn
	}
	var fifo []queued
	withdrawn := map[int32]bool{}
	res.RequestRow(&got, -1) // hold the one slot so every later request queues
	wrapped, grewSplit := false, false
	next := int32(0)
	for step := range 20000 {
		// Drift the queue length up and down so the ring both wraps and grows.
		enqueueBias := 2 + (step/2000)%2*5 // 2/8 of the steps enqueue, then 7/8
		switch op := rng.Intn(8); {
		case op < enqueueBias:
			if q := &res.waitQ; q.n == len(q.buf) && q.head > 0 {
				grewSplit = true
			}
			fifo = append(fifo, queued{id: next, withdrawing: rng.Intn(3) == 0})
			res.RequestRow(&got, next)
			next++
			if q := &res.waitQ; q.head+q.n > len(q.buf) {
				wrapped = true
			}
		case op == enqueueBias && len(fifo) > 0:
			if q := fifo[rng.Intn(len(fifo))]; q.withdrawing {
				if res.Withdraw(&got, q.id) == withdrawn[q.id] {
					t.Fatalf("step %d: Withdraw of claim %d answered %v, already withdrawn %v",
						step, q.id, !withdrawn[q.id], withdrawn[q.id])
				}
				withdrawn[q.id] = true
			}
		default:
			for len(fifo) > 0 && withdrawn[fifo[0].id] {
				fifo = fifo[1:]
			}
			if len(fifo) == 0 {
				continue // keep holding the slot: nothing live to hand it to
			}
			want = append(want, fifo[0].id)
			fifo = fifo[1:]
			res.Release()
			env.Run()
		}
		if res.Stats().Waiting < len(fifo) {
			t.Fatalf("step %d: %d waiting, %d live claimants", step, res.Stats().Waiting, len(fifo))
		}
	}
	if !slices.Equal(got[1:], want) {
		t.Fatalf("grant order diverges from the reference FIFO (%d vs %d grants)", len(got)-1, len(want))
	}
	if !wrapped || !grewSplit || len(want) < 1000 {
		t.Fatalf("run reached wrapped=%v grewSplit=%v with %d grants; the test no longer covers the ring",
			wrapped, grewSplit, len(want))
	}
}

// TestRingPopReleasesTheSlot: Pop zeroes the slot it empties, so a
// ring of claimants keeps no granted Handler reachable.
func TestRingPopReleasesTheSlot(t *testing.T) {
	var r Ring[rwaiter]
	for range 3 {
		r.Push(rwaiter{h: &grantLog{}})
	}
	r.Pop()
	for i, w := range r.buf {
		if live := i >= r.head && i < r.head+r.n; !live && w.h != nil {
			t.Fatalf("slot %d still holds a handler after Pop", i)
		}
	}
}

// TestEventQueueReusesStorage pins the run queue's steady state: once
// the slab, its free list, the heap and the lane pool have grown to the
// working set, a warmed Env schedules and fires with zero allocations,
// whether every event ties with a pending one, none does but all share a
// delay lane, or none shares either.
func TestEventQueueReusesStorage(t *testing.T) {
	for name, c := range map[string][2]func(int) float64{
		"ties":      {tiedPhase, oneDelay},
		"one-delay": {distinctPhase, oneDelay},
		"distinct":  {distinctPhase, ownDelay},
	} {
		env := NewEnv()
		fired := tickers(env, 256, c[0], c[1], math.MaxInt)
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

// TestHoldArmsWithoutAllocating: arming a Hold pushes one record whose
// row is its generation, so re-arming allocates nothing however many
// cancel and re-arm cycles came before (a generation boxed into an
// interface allocated once it passed 255).
func TestHoldArmsWithoutAllocating(t *testing.T) {
	env := NewEnv()
	fired := 0
	h := NewHold(env, func() { fired++ })
	for range 1000 {
		h.After(1)
		h.Cancel()
	}
	env.Run() // drain the orphans; the slab keeps its slots
	allocs := testing.AllocsPerRun(100, func() {
		h.After(1)
		h.Cancel()
		h.After(1)
		env.Run()
	})
	if allocs != 0 {
		t.Fatalf("arming a hold at generation %d allocates %v objects per cycle, want 0", h.gen, allocs)
	}
	if fired != 101 {
		t.Fatalf("fired %d times, want once per uncancelled arming (101)", fired)
	}
}
