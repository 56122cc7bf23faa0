// Package clock unifies the repo's two time domains. The DES engine
// (internal/des) always ran on virtual time; the timing-emulation layer
// (internal/simulation, internal/ai, the validation and streaming
// harnesses) ran on the wall clock, padding every iteration with real
// sleeps. A Clock abstracts that second domain: Wall keeps the
// genuine-compute emulation the paper validates with, whose Sleep parks
// the goroutine for the bulk of a pad and yield-spins its last stretch
// to wait to the microsecond, while Virtual replaces every pad with a
// deterministic cooperative scheduler, so a 300-virtual-second
// validation run completes as fast as its real compute allows and is
// bit-reproducible per seed.
package clock

import (
	"fmt"
	"runtime"
	"time"
)

// Clock is the emulation layer's time source. Components take their
// Now/Sleep from a Clock instead of the time package, so one harness
// runs unchanged in both domains.
//
// Join/Leave are the participant protocol of the Virtual clock's
// cross-goroutine barrier (no-ops on Wall): a joined participant is a
// goroutine whose compute must not be overtaken by virtual time.
// Virtual time advances only when every joined participant is parked in
// Sleep, and only one participant is woken per advance, so concurrently
// padding components interleave in deterministic virtual-deadline order
// — exactly the order their pads complete under Wall's Sleep.
type Clock interface {
	// Now returns the current time in this clock's domain.
	Now() time.Time
	// Sleep blocks for at least d in this clock's domain. On Virtual
	// the caller must be accounted for by a Join (its own or one made
	// on its behalf), or time may advance past running participants.
	Sleep(d time.Duration)
	// Join registers one timed participant (see the interface comment).
	Join()
	// Leave deregisters one participant, releasing the barrier for the
	// rest. Every Join must be balanced by exactly one Leave. A
	// participant waiting on something other goroutines resolve (an MPI
	// collective, a channel receive) must Leave around the wait and
	// Join after it, or the barrier would deadlock waiting for a
	// participant that cannot sleep.
	Leave()
}

// wall is the real-time clock: time.Now plus a pad precise to the
// microsecond. The paper's mini-apps pad every iteration to a target
// duration, and a time-scaled run (a 300-second workflow compressed
// into a few hundred milliseconds) shrinks targets to tens of
// microseconds, far below time.Sleep's scheduling granularity. The
// participant protocol is a no-op — the operating system is the
// barrier.
type wall struct{}

func (wall) Now() time.Time        { return time.Now() }
func (wall) Sleep(d time.Duration) { wallSleep(d, time.Now, time.Sleep, runtime.Gosched) }
func (wall) Join()                 {}
func (wall) Leave()                {}

// spinTail is the tail of every wall pad that is yield-spun instead of
// parked. A host whose timer wakes a parked goroutine later than this
// ends a pad late by the difference.
const spinTail = 500 * time.Microsecond

// wallSleep blocks for at least d as measured by now: it parks for all
// but the last spinTail of d, then yields until the deadline. The yield
// keeps concurrent components (a simulation and a trainer padding
// simultaneously) interleaving fairly even on a single-core machine,
// while the spin gives microsecond accuracy. Non-positive durations
// return at once. now, park and yield are time.Now, time.Sleep and
// runtime.Gosched, or a test's scripted clock.
func wallSleep(d time.Duration, now func() time.Time, park func(time.Duration), yield func()) {
	if d <= 0 {
		return
	}
	deadline := now().Add(d)
	if d > spinTail {
		park(d - spinTail)
	}
	for now().Before(deadline) {
		yield()
	}
}

// Wall is the shared real-time clock.
var Wall Clock = wall{}

// Kind names. A Kind is the serializable selector harness configs carry
// (it is comparable, so configs using it stay usable as map keys).
const (
	// KindVirtual selects a fresh Virtual clock per run — the default
	// for scenario runs and sweeps.
	KindVirtual = "virtual"
	// KindWall selects the genuine-compute wall-clock emulation mode.
	KindWall = "wall"
)

// FromKind resolves a config string to a clock: "virtual" or "" yields
// a fresh Virtual clock, "wall" the shared Wall clock.
func FromKind(kind string) (Clock, error) {
	switch kind {
	case KindVirtual, "":
		return NewVirtual(), nil
	case KindWall:
		return Wall, nil
	}
	return nil, fmt.Errorf("clock: unknown kind %q (valid: %s, %s)", kind, KindVirtual, KindWall)
}

// IsVirtual reports whether kind selects the virtual domain (the
// default when empty).
func IsVirtual(kind string) bool { return kind == "" || kind == KindVirtual }
