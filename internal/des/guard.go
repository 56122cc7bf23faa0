package des

import (
	"fmt"
	"sync/atomic"
)

// Guard bounds one environment's execution: an executed-event budget
// that converts a runaway simulation (a self-perpetuating event loop, a
// mis-parameterized sweep cell) into a structured BudgetExceeded error
// instead of an unbounded run. The zero value imposes no limit and costs
// one predictable branch per event.
type Guard struct {
	// MaxEvents caps the number of events RunUntil may execute over the
	// environment's lifetime (0 = unlimited).
	MaxEvents int64
}

// enabled reports whether the limit is set.
func (g Guard) enabled() bool { return g.MaxEvents > 0 }

// BudgetExceeded is the structured error recorded on an Env whose Guard
// tripped. It carries enough to diagnose the runaway: how far the run
// got and the limit in force.
type BudgetExceeded struct {
	// Guard is the limit configuration that tripped.
	Guard Guard
	// Events is the number of events executed when the run aborted.
	Events int64
	// Now is the virtual time (seconds) when the run aborted.
	Now float64
	// joint marks the trip of a SharedGuard as LPSet.Err reports it: Now
	// is unset, because no LP-local time is a function of the run.
	joint bool
}

// Error renders the trip diagnosis.
func (e *BudgetExceeded) Error() string {
	if e.joint {
		return fmt.Sprintf("des: event budget exceeded: %d events executed (limit %d) across the LP set with work still queued",
			e.Events, e.Guard.MaxEvents)
	}
	return fmt.Sprintf("des: event budget exceeded: %d events executed (limit %d) at t=%.6g with work still queued",
		e.Events, e.Guard.MaxEvents, e.Now)
}

// SetGuard installs (or, with a zero Guard, removes) execution limits on
// the environment and clears any previously recorded budget error. Set
// it before Run/RunUntil; a tripped run stops at the offending event,
// records the error for Err, and preserves the queue for diagnosis.
func (e *Env) SetGuard(g Guard) {
	e.guard = g
	e.guarded = g.enabled() || e.shared != nil
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

// SharedGuard is one event budget enforced jointly across several
// environments — the logical processes of an LPSet run. Without it, a
// per-LP Guard.MaxEvents would multiply the budget by the LP count: a
// cell allowed 1M events on one Env could execute 64M over 64 LPs.
// Every participating Env reserves
// from the same atomic counter before executing an event; reservation
// i executes iff i <= max, so when the budget trips, exactly max
// events have executed across the set — the same count a sequential
// Env reports in its BudgetExceeded.
type SharedGuard struct {
	max  int64
	used atomic.Int64
}

// NewSharedGuard returns a joint budget of maxEvents (> 0) to attach
// to each LP's Env via ShareGuard (or to a whole set via
// LPSet.SetSharedGuard).
func NewSharedGuard(maxEvents int64) *SharedGuard {
	if maxEvents <= 0 {
		panic(fmt.Sprintf("des: shared guard budget %d", maxEvents))
	}
	return &SharedGuard{max: maxEvents}
}

// MaxEvents returns the joint budget.
func (g *SharedGuard) MaxEvents() int64 { return g.max }

// Exceeded reports whether the joint budget has tripped.
func (g *SharedGuard) Exceeded() bool { return g.used.Load() > g.max }

// ShareGuard attaches (or with nil detaches) a joint cross-environment
// event budget, clearing any recorded budget error. It composes with
// SetGuard: a per-env Guard and a shared budget can both be armed.
func (e *Env) ShareGuard(g *SharedGuard) {
	e.shared = g
	e.guarded = e.guard.enabled() || g != nil
	e.guardErr = nil
}

// checkGuard reports whether executing the next queued event would
// exceed the guard, recording the budget error if so.
func (e *Env) checkGuard() bool {
	if e.shared != nil && e.shared.used.Add(1) > e.shared.max {
		// Reservations beyond the joint budget never execute, so the
		// executed total across every attached env is exactly max — the
		// same Events a sequential env reports at its budget trip.
		e.guardErr = &BudgetExceeded{Guard: Guard{MaxEvents: e.shared.max}, Events: e.shared.max, Now: e.now}
		return true
	}
	if e.guard.MaxEvents > 0 && e.executed >= e.guard.MaxEvents {
		e.guardErr = &BudgetExceeded{Guard: e.guard, Events: e.executed, Now: e.now}
		return true
	}
	return false
}
