package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// oneShot runs realMain with args, failing the test if it has not
// returned after 10 s.
func oneShot(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- realMain(context.Background(), args, &out, &errBuf) }()
	select {
	case code = <-done:
		return code, out.String(), errBuf.String()
	case <-time.After(10 * time.Second):
		t.Fatalf("simaibench %v still running after 10 s", args)
		return
	}
}

// TestOneShotRejectsZeroPeriods: a period of 0 used to hang the run
// (-read-period: the trainer panicked on i%0 and the solver, which never
// looked at its context, waited forever for its stop key) or surface a
// divide-by-zero panic string (-write-period). Both are refused by flag
// name before a backend is deployed.
func TestOneShotRejectsZeroPeriods(t *testing.T) {
	for _, flag := range []string{"-read-period", "-write-period", "-train-iters", "-time-scale", "-payload-mb"} {
		code, _, stderr := oneShot(t, flag, "0")
		if code != 1 || !strings.Contains(stderr, flag) || strings.Contains(stderr, "panic") {
			t.Errorf("%s 0: exit %d, stderr %q; want exit 1 naming the flag", flag, code, stderr)
		}
	}
	if code, _, stderr := oneShot(t, "-backend", "carrier-pigeon"); code != 1 || !strings.Contains(stderr, "carrier-pigeon") {
		t.Errorf("unknown backend: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := oneShot(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestOneShotRuns: the built-in configurations run to completion on
// every backend and report both components.
func TestOneShotRuns(t *testing.T) {
	for _, backend := range []string{"node-local", "redis", "dragon", "filesystem"} {
		code, stdout, stderr := oneShot(t, "-backend", backend, "-train-iters", "50",
			"-write-period", "10", "-payload-mb", "0.01", "-time-scale", "0.001")
		if code != 0 || !strings.Contains(stdout, "Training:   50 steps") || !strings.Contains(stdout, "Simulation: ") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q", backend, code, stdout, stderr)
		}
	}
}
