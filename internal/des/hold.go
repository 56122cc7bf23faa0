package des

// Hold is a cancellable scheduled callback: the interruptible
// counterpart of Env.After for state machines that a fault can tear
// down mid-wait (a rank's next wake-up, a checkpoint cadence timer, a
// repair deadline). A Hold owns at most one pending occurrence at a
// time; Cancel orphans the pending occurrence without touching the
// event queue — the record still pops at its scheduled time, sees a
// stale generation, and falls through without firing. Armed/fired/
// cancelled occurrences all keep the (time, seq) order of every other
// event untouched, so adding cancellation to a schedule cannot perturb
// the events around it.
//
// Arming pushes one record whose row is the arming's generation, so it
// allocates nothing however often a Hold is re-armed. A Hold has no
// self-reference: MakeHold's value can live in a table row.
type Hold struct {
	env *Env
	h   Handler
	row int32
	// gen stamps each arming; Cancel bumps it so the pending record's
	// stale stamp no longer matches.
	gen   int32
	armed bool
}

// NewHold returns an unarmed hold that runs fn when a pending arming
// fires uncancelled.
func NewHold(env *Env, fn func()) *Hold {
	h := MakeHold(env, Func(fn), 0)
	return &h
}

// MakeHold returns an unarmed hold that fires h.Fire(row) when a pending
// arming fires uncancelled.
func MakeHold(env *Env, h Handler, row int32) Hold { return Hold{env: env, h: h, row: row} }

// holdFire is the Handler a Hold arms itself with: the event's row is
// the generation it was armed under.
type holdFire Hold

func (h *holdFire) Fire(gen int32) {
	if gen != h.gen {
		return // cancelled (or superseded) arming
	}
	h.armed = false
	h.h.Fire(h.row)
}

// At arms the hold to fire at absolute virtual time t (>= Now). Arming
// an already-armed hold cancels the pending occurrence first, so a hold
// never fires twice for one arming sequence.
func (h *Hold) At(t float64) {
	if h.armed {
		h.gen++
	}
	h.armed = true
	h.env.AtRow(t, (*holdFire)(h), h.gen)
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
