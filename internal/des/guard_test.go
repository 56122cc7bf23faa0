package des

import (
	"errors"
	"strings"
	"testing"
)

// A runaway self-rescheduling event must be cut off at the event budget
// with a structured, diagnosable error instead of looping forever.
func TestGuardEventBudget(t *testing.T) {
	env := NewEnv()
	env.SetGuard(Guard{MaxEvents: 100})
	var fired int
	var loop func()
	loop = func() {
		fired++
		env.After(0.001, loop) // perpetual: never drains on its own
	}
	env.After(0, loop)
	env.Run()

	err := env.Err()
	if err == nil {
		t.Fatal("runaway loop ran to completion under a 100-event budget")
	}
	var be *BudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("Err() = %T (%v), want *BudgetExceeded", err, err)
	}
	if be.Events != 100 || fired != 100 {
		t.Fatalf("executed %d events (callback fired %d), want exactly 100", be.Events, fired)
	}
	if env.Pending() == 0 {
		t.Fatal("queue was discarded; a tripped guard must preserve it for diagnosis")
	}
	if !strings.Contains(err.Error(), "event budget exceeded") {
		t.Fatalf("undiagnosable message: %q", err)
	}
}

// The zero-value guard imposes no limits and records no error, and
// SetGuard(Guard{}) removes a previously installed one.
func TestGuardDisabled(t *testing.T) {
	env := NewEnv()
	var ran int
	for i := 0; i < 1000; i++ {
		env.At(float64(i), func() { ran++ })
	}
	env.Run()
	if env.Err() != nil || ran != 1000 {
		t.Fatalf("unguarded run: ran=%d err=%v", ran, env.Err())
	}

	env2 := NewEnv()
	env2.SetGuard(Guard{MaxEvents: 1})
	env2.SetGuard(Guard{}) // removed before running
	env2.At(0, func() { ran++ })
	env2.At(1, func() { ran++ })
	env2.Run()
	if env2.Err() != nil {
		t.Fatalf("removed guard still tripped: %v", env2.Err())
	}
	if got := env2.Executed(); got != 2 {
		t.Fatalf("Executed() = %d, want 2", got)
	}
}

// Guarded and unguarded runs of the same workload execute the identical
// event sequence — the guardrail must be zero-cost in behavior.
func TestGuardHealthyRunIdentical(t *testing.T) {
	run := func(guard bool) []float64 {
		env := NewEnv()
		if guard {
			env.SetGuard(Guard{MaxEvents: 1 << 30})
		}
		var trace []float64
		var n int
		var tick func()
		tick = func() {
			trace = append(trace, env.Now())
			if n++; n < 50 {
				env.After(0.5, tick)
			}
		}
		env.After(0, tick)
		env.Run()
		if env.Err() != nil {
			t.Fatalf("healthy run tripped: %v", env.Err())
		}
		return trace
	}
	plain, guarded := run(false), run(true)
	if len(plain) != len(guarded) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(guarded))
	}
	for i := range plain {
		if plain[i] != guarded[i] {
			t.Fatalf("event %d at t=%v (plain) vs t=%v (guarded)", i, plain[i], guarded[i])
		}
	}
}

// BenchmarkGuardedTick is BenchmarkCallbackTick with a (never-tripping)
// guard armed: the same cached self-rescheduling closure, plus the one
// budget branch per executed event. The pair measures what an armed
// guard costs per event:
//
//	go test -run '^$' -bench 'CallbackTick|GuardedTick' -benchmem ./internal/des/
func BenchmarkGuardedTick(b *testing.B) {
	env := NewEnv()
	env.SetGuard(Guard{MaxEvents: 1 << 60})
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
