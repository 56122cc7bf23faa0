package clock

import (
	"testing"
	"time"
)

// TestSleepAccuracyMicroseconds measures the host by design: Wall.Sleep
// exists to wait a real duration precisely, so only a wall clock can
// test it. Every wait must last at least d and at most d+2 ms; a host
// loaded past its cores can take the CPU away at the deadline for
// longer than that, and the test then fails on the host, not the code.
func TestSleepAccuracyMicroseconds(t *testing.T) {
	for _, d := range []time.Duration{
		50 * time.Microsecond,
		200 * time.Microsecond,
		2 * time.Millisecond,
	} {
		start := time.Now()
		Wall.Sleep(d)
		got := time.Since(start)
		if got < d {
			t.Fatalf("Sleep(%v) returned early after %v", d, got)
		}
		// Precision: overshoot bounded by 2 ms even for tiny waits
		// (generous bound for noisy CI machines).
		if got > d+2*time.Millisecond {
			t.Fatalf("Sleep(%v) overshot to %v", d, got)
		}
	}
}

// scriptedHost is a wall clock under a test's control: a park moves it
// by the parked duration plus late, a yield by step, and nothing else
// moves it. It counts every call wallSleep makes.
type scriptedHost struct {
	at           time.Time
	late, step   time.Duration
	nows, yields int
	parks        []time.Duration
	yieldsAtPark int
}

func (h *scriptedHost) now() time.Time { h.nows++; return h.at }

func (h *scriptedHost) park(d time.Duration) {
	h.yieldsAtPark = h.yields
	h.parks = append(h.parks, d)
	h.at = h.at.Add(d + h.late)
}

func (h *scriptedHost) yield() { h.yields++; h.at = h.at.Add(h.step) }

func (h *scriptedHost) sleep(d time.Duration) time.Duration {
	start := h.at
	wallSleep(d, h.now, h.park, h.yield)
	return h.at.Sub(start)
}

// TestWallSleepScripted pins Wall's pad on a scripted clock, so no host
// timing enters: it never returns before d, however late a park wakes
// or however coarse a yield is, and no later than the first reading
// past d (or a park's late wake-up); it parks once, for d less the spin
// tail, and only when d exceeds the tail; within the tail it yields and
// does not park; and a d of zero or less returns without looking at the
// clock.
func TestWallSleepScripted(t *testing.T) {
	for _, d := range []time.Duration{1, time.Microsecond, spinTail - 1, spinTail, spinTail + 1,
		2 * spinTail, 10 * time.Millisecond} {
		for _, late := range []time.Duration{0, 3 * time.Microsecond, 2 * spinTail} {
			for _, step := range []time.Duration{1, 7 * time.Microsecond, time.Millisecond} {
				h := &scriptedHost{at: time.Unix(100, 0), late: late, step: step}
				got := h.sleep(d)
				if got < d {
					t.Fatalf("d %v, late %v, step %v: returned after %v", d, late, step, got)
				}
				// Nor does it wait on once d has passed: it ends at the
				// first reading past d, or when a park that overslept d
				// wakes.
				bound := d + step
				if d > spinTail {
					bound = max(d, d-spinTail+late) + step
				}
				if got >= bound {
					t.Fatalf("d %v, late %v, step %v: returned after %v, past the deadline's reading", d, late, step, got)
				}
				if d <= spinTail {
					if len(h.parks) != 0 {
						t.Fatalf("d %v within the tail: parked %v", d, h.parks)
					}
					if h.yields == 0 {
						t.Fatalf("d %v within the tail: returned without yielding", d)
					}
					continue
				}
				if len(h.parks) != 1 || h.parks[0] != d-spinTail {
					t.Fatalf("d %v: parked %v, want once for %v", d, h.parks, d-spinTail)
				}
				if h.yieldsAtPark != 0 {
					t.Fatalf("d %v: yielded %d times before parking", d, h.yieldsAtPark)
				}
				// A park that wakes on time leaves exactly the tail,
				// which is spun, not slept.
				if late == 0 && h.yields == 0 {
					t.Fatalf("d %v: the tail after an on-time park was not yielded", d)
				}
			}
		}
	}
	for _, d := range []time.Duration{0, -1, -time.Second} {
		h := &scriptedHost{at: time.Unix(100, 0), step: time.Microsecond}
		if got := h.sleep(d); got != 0 || h.nows+h.yields+len(h.parks) != 0 {
			t.Fatalf("Sleep(%v): %d reads, %d yields, parks %v, %v passed; want an immediate return",
				d, h.nows, h.yields, h.parks, got)
		}
	}
}
