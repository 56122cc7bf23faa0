// Package spin provides a high-precision sleep for the timing-emulation
// layer. The paper's mini-apps pad every iteration to a target duration;
// when runs are time-scaled (a 300-second workflow compressed into a few
// hundred milliseconds), targets shrink to tens of microseconds — far
// below time.Sleep's scheduling granularity. Sleep here parks the
// goroutine for the bulk of the wait and yield-spins the final stretch:
// the yield keeps concurrent components (a simulation and a trainer
// padding simultaneously) interleaving fairly even on a single-core
// machine, while the spin gives microsecond accuracy.
package spin

import (
	"runtime"
	"time"
)

// spinThreshold is the tail of every wait that is yield-spun instead of
// slept. 500µs comfortably covers timer wake-up jitter on Linux.
const spinThreshold = 500 * time.Microsecond

// Sleep blocks for at least d, with microsecond precision. Non-positive
// durations return immediately.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > spinThreshold {
		time.Sleep(d - spinThreshold)
	}
	for time.Now().Before(deadline) {
		// Yield so other emulated components progress while we pad;
		// a hard spin would starve them on few-core machines.
		runtime.Gosched()
	}
}
