package des

import (
	"fmt"
	"math"
)

// Guard bounds one execution: an executed-event budget that converts a
// runaway simulation (a self-perpetuating event loop, a
// mis-parameterized sweep cell) into a structured BudgetExceeded error
// instead of an unbounded run. The zero value imposes no limit and costs
// one predictable branch per event. An Env (SetGuard) and a Serial trip
// through one method, so a closed form reports an Env's trip verbatim.
type Guard struct {
	// MaxEvents caps the events executed over a lifetime (0 = unlimited).
	MaxEvents int64
}

// enabled reports whether the limit is set.
func (g Guard) enabled() bool { return g.MaxEvents > 0 }

// exceeded is the error of a run g stopped after executed events, the
// last at virtual time now.
func (g Guard) exceeded(executed int64, now float64) error {
	return &BudgetExceeded{Guard: g, Events: executed, Now: now}
}

// BudgetExceeded is the structured error recorded on an Env or a Serial
// whose Guard tripped. It carries enough to diagnose the runaway: how
// far the run got and the limit in force.
type BudgetExceeded struct {
	// Guard is the limit configuration that tripped.
	Guard Guard
	// Events is the number of events executed when the run aborted.
	Events int64
	// Now is the virtual time (seconds) when the run aborted.
	Now float64
}

// Error renders the trip diagnosis.
func (e *BudgetExceeded) Error() string {
	return fmt.Sprintf("des: event budget exceeded: %d events executed (limit %d) at t=%.6g with work still queued",
		e.Events, e.Guard.MaxEvents, e.Now)
}

// SetGuard installs (or, with a zero Guard, removes) execution limits on
// the environment and clears any previously recorded budget error. Set
// it before Run/RunUntil; a tripped run stops at the offending event,
// records the error for Err, and preserves the queue for diagnosis.
func (e *Env) SetGuard(g Guard) {
	e.guard = g
	e.guardErr = nil
}

// Err returns the BudgetExceeded error recorded by a guarded run that
// tripped its limits, or nil after a healthy run. Check it after
// Run/RunUntil on guarded environments: the run-loop return value alone
// cannot distinguish a drained queue from an aborted one.
func (e *Env) Err() error { return e.guardErr }

// Executed reports the total number of events executed by this
// environment across all Run/RunUntil calls.
func (e *Env) Executed() int64 { return e.executed }

// checkGuard reports whether executing the next queued event would
// exceed the guard, recording the budget error if so.
func (e *Env) checkGuard() bool {
	if e.executed >= e.guard.MaxEvents {
		e.guardErr = e.guard.exceeded(e.executed, e.now)
		return true
	}
	return false
}

// Serial is the clock of one serial chain of events that a closed form
// adds up instead of scheduling. It counts the events a guarded Env
// would execute, in batches of simultaneous ones, and stops where that
// Env's RunUntil would: at the event past the budget, with the same
// error, or before an event past the horizon (+Inf until SetHorizon).
type Serial struct {
	guard      Guard
	until, now float64
	events     int64
	err        error
}

// NewSerial returns a clock at zero bounded by g.
func NewSerial(g Guard) Serial { return Serial{guard: g, until: math.Inf(1)} }

// SetHorizon makes Run refuse events after until, as RunUntil(until) does.
func (s *Serial) SetHorizon(until float64) { s.until = until }

// Run executes n events at time t, not before the last run's, as far as
// the guard and the horizon allow, and reports whether it executed all
// n. A batch the budget cuts runs up to the budget (moving the clock to
// t if any event ran) and records the trip for Err; every later Run
// refuses. The closed forms call it per event, so it must stay within
// the inliner's budget (cost 78 of 80 with go1.24).
func (s *Serial) Run(t float64, n int64) bool {
	if s.err != nil || t > s.until {
		return false
	}
	if s.guard.enabled() && s.events+n > s.guard.MaxEvents {
		if s.events < s.guard.MaxEvents {
			s.events, s.now = s.guard.MaxEvents, t
		}
		s.err = s.guard.exceeded(s.events, s.now)
		return false
	}
	s.events += n
	s.now = t
	return true
}

// Fits reports how many whole steps of perStep > 0 events the guard
// still leaves (math.MaxInt without a limit).
func (s *Serial) Fits(perStep int64) int {
	if !s.guard.enabled() {
		return math.MaxInt
	}
	return int((s.guard.MaxEvents - s.events) / perStep)
}

// Err returns the trip Run recorded, or nil.
func (s *Serial) Err() error { return s.err }
