package des

import (
	"errors"
	"reflect"
	"testing"
)

// tickMachine is a minimal periodic workload: fire every period, record
// the firing time, stop after count fires. Identical schedule calls on
// any Env, so single-env and partitioned runs are directly comparable.
type tickMachine struct {
	env    *Env
	period float64
	count  int
	times  []float64
	fire   func()
}

func newTickMachine(env *Env, start, period float64, count int) *tickMachine {
	m := &tickMachine{env: env, period: period, count: count}
	m.fire = func() {
		m.times = append(m.times, m.env.Now())
		if len(m.times) < m.count {
			m.env.After(m.period, m.fire)
		}
	}
	env.At(start, m.fire)
	return m
}

// executed sums the events the n LPs of set have executed.
func executed(set *LPSet, n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		total += set.Env(i).Executed()
	}
	return total
}

// TestLPIndependentMatchesSingleEnv: machines with no cross-LP edges
// produce identical per-machine firing times whether they share one Env
// or run as separate LPs, at any worker count.
func TestLPIndependentMatchesSingleEnv(t *testing.T) {
	build := func(envOf func(i int) *Env) []*tickMachine {
		ms := make([]*tickMachine, 6)
		for i := range ms {
			ms[i] = newTickMachine(envOf(i), 0.1*float64(i), 0.25+0.01*float64(i), 20+i)
		}
		return ms
	}
	ref := NewEnv()
	refMs := build(func(int) *Env { return ref })
	refEnd := ref.RunUntil(1e6)

	for _, workers := range []int{1, 2, 4, 8} {
		set := NewLPSet(6)
		ms := build(func(i int) *Env { return set.Env(i) })
		end := set.Run(workers, 1e6)
		if end != refEnd {
			t.Errorf("workers=%d: end=%v, sequential %v", workers, end, refEnd)
		}
		if got, want := executed(set, 6), ref.Executed(); got != want {
			t.Errorf("workers=%d: executed %d, sequential %d", workers, got, want)
		}
		for i := range ms {
			if !reflect.DeepEqual(ms[i].times, refMs[i].times) {
				t.Errorf("workers=%d: machine %d trace diverged", workers, i)
			}
		}
	}
}

// TestLPSharedGuardBudget: MaxEvents on an LPSet is enforced globally
// across LPs, and the structured error matches what a sequential Env
// reports for the same budget — same Guard, same Events — and carries
// nothing else: which LP tripped, and when on its own clock, depends on
// worker scheduling.
func TestLPSharedGuardBudget(t *testing.T) {
	const budget = 25
	build := func(envOf func(i int) *Env) {
		for i := 0; i < 4; i++ {
			newTickMachine(envOf(i), 0.1*float64(i), 0.25, 1000)
		}
	}

	ref := NewEnv()
	ref.SetGuard(Guard{MaxEvents: budget})
	build(func(int) *Env { return ref })
	ref.RunUntil(1e6)
	var refErr *BudgetExceeded
	if !errors.As(ref.Err(), &refErr) {
		t.Fatalf("sequential run did not trip: %v", ref.Err())
	}

	for _, workers := range []int{1, 4} {
		set := NewLPSet(4)
		set.SetSharedGuard(NewSharedGuard(budget))
		build(func(i int) *Env { return set.Env(i) })
		set.Run(workers, 1e6)
		var lpErr *BudgetExceeded
		if !errors.As(set.Err(), &lpErr) {
			t.Fatalf("workers=%d: parallel run did not trip: %v", workers, set.Err())
		}
		if lpErr.Guard != refErr.Guard || lpErr.Events != refErr.Events {
			t.Errorf("workers=%d: BudgetExceeded{Guard:%+v Events:%d}, sequential {Guard:%+v Events:%d}",
				workers, lpErr.Guard, lpErr.Events, refErr.Guard, refErr.Events)
		}
		if want := (BudgetExceeded{Guard: Guard{MaxEvents: budget}, Events: budget, joint: true}); *lpErr != want {
			t.Errorf("workers=%d: joint trip %+v carries LP-local state, want %+v", workers, *lpErr, want)
		}
		if got := executed(set, 4); got != budget {
			t.Errorf("workers=%d: executed %d events across LPs, budget %d", workers, got, budget)
		}
	}
}

// TestLPShareGuardSurvivesSetGuard: installing a per-env Guard after a
// shared budget is attached must not disarm the shared budget.
func TestLPShareGuardSurvivesSetGuard(t *testing.T) {
	env := NewEnv()
	env.ShareGuard(NewSharedGuard(3))
	env.SetGuard(Guard{}) // zero guard: no per-env limits
	newTickMachine(env, 0, 0.1, 100)
	env.RunUntil(1e6)
	var be *BudgetExceeded
	if !errors.As(env.Err(), &be) {
		t.Fatalf("shared budget disarmed by SetGuard: %v", env.Err())
	}
	if be.Events != 3 {
		t.Errorf("Events = %d, want 3", be.Events)
	}
}

// TestLPPanicPropagation: a panic inside any LP's window surfaces from
// Run on the calling goroutine, at every worker count, so callers'
// recover-based isolation keeps working.
func TestLPPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		set := NewLPSet(4)
		for i := 0; i < 4; i++ {
			newTickMachine(set.Env(i), 0, 0.1, 50)
		}
		set.Env(2).At(1.0, func() { panic("lp boom") })
		func() {
			defer func() {
				if r := recover(); r != "lp boom" {
					t.Errorf("workers=%d: recovered %v, want \"lp boom\"", workers, r)
				}
			}()
			set.Run(workers, 1e6)
			t.Errorf("workers=%d: Run returned instead of panicking", workers)
		}()
	}
}

// TestLPRunHonorsHorizon: Run's until bound is inclusive like
// Env.RunUntil, and events past it stay queued.
func TestLPRunHonorsHorizon(t *testing.T) {
	set := NewLPSet(2)
	m0 := newTickMachine(set.Env(0), 1, 1, 100)
	m1 := newTickMachine(set.Env(1), 0.5, 1, 100)
	end := set.Run(4, 3)
	if end != 3 {
		t.Errorf("end = %v, want 3 (inclusive bound)", end)
	}
	if got := len(m0.times) + len(m1.times); got != 6 {
		t.Errorf("fired %d events by t=3, want 6", got)
	}
	if set.Env(0).Pending() == 0 || set.Env(1).Pending() == 0 {
		t.Error("events past the horizon should remain queued")
	}
	set.Shutdown()
	if set.Env(0).Pending() != 0 || set.Env(1).Pending() != 0 {
		t.Error("Shutdown should drop queued events")
	}
}

// TestLPDegenerateShapes pins the edges of the fan-out: a set with no
// events, a single LP, more workers than LPs, a non-positive worker
// count, and the constructors' size checks.
func TestLPDegenerateShapes(t *testing.T) {
	if end := NewLPSet(3).Run(2, 100); end != 0 {
		t.Errorf("empty run end = %v, want 0", end)
	}
	ref := newTickMachine(NewEnv(), 0.5, 0.25, 9)
	ref.env.Run()
	for _, shape := range []struct{ lps, workers int }{{1, 4}, {2, 8}, {3, 0}, {3, -1}} {
		set := NewLPSet(shape.lps)
		ms := make([]*tickMachine, shape.lps)
		for i := range ms {
			ms[i] = newTickMachine(set.Env(i), 0.5, 0.25, 9)
		}
		if end := set.Run(shape.workers, 1e6); end != ref.env.Now() {
			t.Errorf("%+v: end = %v, want %v", shape, end, ref.env.Now())
		}
		for i, m := range ms {
			if !reflect.DeepEqual(m.times, ref.times) {
				t.Errorf("%+v: LP %d trace %v, want %v", shape, i, m.times, ref.times)
			}
		}
	}
	mustPanic(t, "empty set", func() { NewLPSet(0) })
	mustPanic(t, "bad budget", func() { NewSharedGuard(0) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}
