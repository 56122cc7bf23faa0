package des

// Hold is a cancellable scheduled callback: the interruptible
// counterpart of Env.After for state machines that a fault can tear
// down mid-wait (a rank's next wake-up, a checkpoint cadence timer, a
// repair deadline). A Hold owns at most one pending occurrence at a
// time; Cancel orphans the pending occurrence without touching the
// event queue — the record still pops at its scheduled time, sees a
// stale generation, and falls through without running the callback.
// Armed/fired/cancelled occurrences all keep the (time, seq) order of
// every other event untouched, so adding cancellation to a schedule
// cannot perturb the events around it.
//
// Like the flat transfer objects, a Hold is allocated once (NewHold
// builds its closure) and re-armed for free: arming pushes one value
// record, and the generation payload is a small boxed int.
type Hold struct {
	env *Env
	fn  func()
	// gen stamps each arming; Cancel bumps it so the pending record's
	// stale stamp no longer matches.
	gen   int
	armed bool
	check func(any)
}

// NewHold returns an unarmed hold that runs fn when a pending arming
// fires uncancelled.
func NewHold(env *Env, fn func()) *Hold {
	h := &Hold{env: env, fn: fn}
	h.check = func(v any) {
		if v.(int) != h.gen {
			return // cancelled (or superseded) arming
		}
		h.armed = false
		h.fn()
	}
	return h
}

// At arms the hold to fire at absolute virtual time t (>= Now). Arming
// an already-armed hold cancels the pending occurrence first, so a hold
// never fires twice for one arming sequence.
func (h *Hold) At(t float64) {
	if h.armed {
		h.gen++
	}
	h.armed = true
	h.env.call(t, h.check, h.gen)
}

// After arms the hold to fire d seconds from now.
func (h *Hold) After(d float64) { h.At(h.env.now + d) }

// Cancel orphans the pending occurrence, if any. Safe to call when the
// hold is idle.
func (h *Hold) Cancel() {
	if h.armed {
		h.gen++
		h.armed = false
	}
}

// Armed reports whether an uncancelled occurrence is pending.
func (h *Hold) Armed() bool { return h.armed }
