package spin

import (
	"testing"
	"time"
)

// TestSleepAccuracyMicroseconds measures the host by design: spin.Sleep
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
		Sleep(d)
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

func TestSleepNonPositive(t *testing.T) {
	start := time.Now()
	Sleep(0)
	Sleep(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("non-positive sleep blocked")
	}
}
