package des

import (
	"errors"
	"math"
	"math/rand"
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

// serialBatch is n simultaneous events at time t of one serial chain.
type serialBatch struct {
	t float64
	n int64
}

// checkSerialMatchesEnv runs chain on a Serial and, one pre-scheduled
// event each, on an Env, both under Guard{budget} and the horizon until,
// and fails unless they agree in events executed, clock and error text.
// Then, with a limit set, it runs steps of perStep events on the Env
// until one is cut and fails unless Fits(perStep) counted the whole ones.
func checkSerialMatchesEnv(t *testing.T, chain []serialBatch, budget int64, until float64, perStep int64) {
	t.Helper()
	g := Guard{MaxEvents: budget}
	env := NewEnv()
	env.SetGuard(g)
	s := NewSerial(g)
	s.SetHorizon(until)
	for _, b := range chain {
		for range b.n {
			env.At(b.t, func() {})
		}
		s.Run(b.t, b.n)
	}
	env.RunUntil(until)
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if s.events != env.Executed() || s.now != env.Now() || errText(s.Err()) != errText(env.Err()) {
		t.Fatalf("chain %v, budget %d, horizon %v:\nSerial %d events, now %v, err %s\nEnv    %d events, now %v, err %s",
			chain, budget, until, s.events, s.now, errText(s.Err()), env.Executed(), env.Now(), errText(env.Err()))
	}
	fits := s.Fits(perStep)
	if !g.enabled() {
		if fits != math.MaxInt {
			t.Fatalf("unguarded Fits(%d) = %d, want math.MaxInt", perStep, fits)
		}
		return
	}
	env.Shutdown() // drop what the horizon left queued
	steps := 0
	for at := env.Now() + 1; ; at++ {
		before := env.Executed()
		for range perStep {
			env.At(at, func() {})
		}
		env.Run()
		if env.Executed()-before < perStep {
			break
		}
		steps++
	}
	if fits != steps {
		t.Fatalf("chain %v, budget %d, horizon %v: Fits(%d) = %d, Env completed %d steps",
			chain, budget, until, perStep, fits, steps)
	}
}

// serialEdgeBudgets are the budgets around a chain of total events:
// none, one, exactly enough, one short and one spare.
func serialEdgeBudgets(total int64) []int64 { return []int64{0, 1, total, total - 1, total + 1} }

// TestSerialMatchesEnv: a Serial and a guarded Env running the same
// chain — random times with ties and random batch sizes — agree in
// events executed, Now and error text under every edge budget and a
// random one, with no horizon, a horizon of 0 and a random one, and
// Fits(k) is the number of whole k-event steps the Env then completes.
func TestSerialMatchesEnv(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5e71a1))
	for range 400 {
		chain := make([]serialBatch, rng.Intn(12))
		total, now := int64(0), 0.0
		if rng.Intn(2) == 0 {
			now = rng.Float64()
		}
		for i := range chain {
			if i > 0 && rng.Intn(3) > 0 {
				now += rng.Float64() * 2
			}
			chain[i] = serialBatch{now, 1 + rng.Int63n(5)}
			total += chain[i].n
		}
		horizons := []float64{math.Inf(1), 0, rng.Float64() * (now + 1)}
		if len(chain) > 0 {
			horizons = append(horizons, chain[rng.Intn(len(chain))].t)
		}
		budgets := append(serialEdgeBudgets(total), 1+rng.Int63n(total+2))
		for _, budget := range budgets {
			for _, until := range horizons {
				checkSerialMatchesEnv(t, chain, budget, until, 1+rng.Int63n(6))
			}
		}
	}
}

// decodeSerialChain reads one batch per byte: the high five bits step
// the time in quarters (0 = the same instant as the batch before), the
// low three give 1–8 events.
func decodeSerialChain(data []byte) ([]serialBatch, int64) {
	chain := make([]serialBatch, 0, min(len(data), 64))
	total, now := int64(0), 0.0
	for _, b := range data[:min(len(data), 64)] {
		now += float64(b>>3) / 4
		chain = append(chain, serialBatch{now, int64(b&7) + 1})
		total += int64(b&7) + 1
	}
	return chain, total
}

// FuzzSerialMatchesEnv walks TestSerialMatchesEnv's comparison over
// fuzzed chains, budgets (folded into −total−2 … total+2), horizons and
// step sizes, seeded with its edge budgets and horizons:
//
//	go test -run '^$' -fuzz FuzzSerialMatchesEnv -fuzztime 10s -parallel 1 ./internal/des/
func FuzzSerialMatchesEnv(f *testing.F) {
	for _, data := range [][]byte{{}, {0}, {7, 0, 9, 3}, {8, 8, 8}, {5, 250, 1, 0, 255}} {
		_, total := decodeSerialChain(data)
		for _, budget := range serialEdgeBudgets(total) {
			for _, until := range []float64{math.Inf(1), 0, 2.25} {
				f.Add(data, budget, until, uint8(total%4))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, budget int64, until float64, perStep uint8) {
		chain, total := decodeSerialChain(data)
		checkSerialMatchesEnv(t, chain, budget%(total+3), until, int64(perStep%8)+1)
	})
}
