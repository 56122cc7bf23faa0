package des

import "fmt"

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
	e.guarded = g.enabled()
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
		e.guardErr = &BudgetExceeded{Guard: e.guard, Events: e.executed, Now: e.now}
		return true
	}
	return false
}
