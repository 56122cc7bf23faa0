package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A panicking cell must surface as a structured CellError with a stack,
// while every other cell completes — the sweep is no longer
// all-or-nothing.
func TestRunIsolatesPanics(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	for _, workers := range []int{1, 4} {
		Workers = workers
		r := Run(context.Background(), 10, Options{}, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic("saboteur")
			}
			return i * i, nil
		})
		if r.OK() {
			t.Fatalf("workers=%d: OK() true with a panicking cell", workers)
		}
		if len(r.Failures) != 1 {
			t.Fatalf("workers=%d: %d failures, want 1", workers, len(r.Failures))
		}
		ce := r.Failures[0]
		if r.Err() != error(ce) {
			t.Fatalf("workers=%d: Err() = %v, want the cell's failure", workers, r.Err())
		}
		if ce.Index != 3 {
			t.Fatalf("workers=%d: failure = %+v, want cell 3", workers, ce)
		}
		var pe *PanicError
		if !errors.As(ce.Err, &pe) || pe.Value != "saboteur" {
			t.Fatalf("workers=%d: Err = %v, want PanicError(saboteur)", workers, ce.Err)
		}
		if !strings.Contains(ce.Stack, "TestRunIsolatesPanics") {
			t.Fatalf("workers=%d: stack does not name the panic site:\n%s", workers, ce.Stack)
		}
		for i := 0; i < 10; i++ {
			want, st := StatusOK, i*i
			if i == 3 {
				want, st = StatusFailed, 0
			}
			if r.Status[i] != want || r.Values[i] != st {
				t.Fatalf("workers=%d: cell %d = (%v, %d), want (%v, %d)",
					workers, i, r.Status[i], r.Values[i], want, st)
			}
		}
		if got := r.Completed(); len(got) != 9 {
			t.Fatalf("workers=%d: Completed() returned %d values, want 9", workers, len(got))
		}
	}
}

// The partial-result ambiguity fix: on cancellation, never-started cells
// are StatusSkipped — distinguishable from completed cells whose result
// happens to be the zero value.
func TestRunCancellationMarksSkippedCells(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 1 // serial: deterministic claim order
	ctx, cancel := context.WithCancel(context.Background())
	r := Run(ctx, 100, Options{}, func(_ context.Context, i int) (int, error) {
		if i == 4 {
			cancel()
		}
		return 0, nil // the zero value IS the legitimate result
	})
	if !errors.Is(r.CtxErr, context.Canceled) || !errors.Is(r.Err(), context.Canceled) {
		t.Fatalf("CtxErr = %v, want Canceled", r.CtxErr)
	}
	for i := 0; i <= 4; i++ {
		if r.Status[i] != StatusOK {
			t.Fatalf("completed cell %d marked %v", i, r.Status[i])
		}
	}
	for i := 5; i < 100; i++ {
		if r.Status[i] != StatusSkipped {
			t.Fatalf("never-started cell %d marked %v, want skipped", i, r.Status[i])
		}
	}
	if got := r.Completed(); len(got) != 5 {
		t.Fatalf("Completed() = %d values, want the 5 that ran", len(got))
	}
}

// A cell wedged past its deadline is abandoned with ErrCellTimeout while
// the rest of the sweep completes. Once the test releases the wedged
// cell, the sweep has left no goroutine behind.
func TestRunAbandonsHungCell(t *testing.T) {
	base := runtime.NumGoroutine()
	hang := make(chan struct{})
	r := Run(context.Background(), 4, Options{Timeout: 50 * time.Millisecond},
		func(_ context.Context, i int) (int, error) {
			if i == 2 {
				<-hang // wedged: never observes its ctx
			}
			return i, nil
		})
	if len(r.Failures) != 1 || r.Failures[0].Index != 2 {
		t.Fatalf("failures = %v, want exactly the hung cell 2", r.Failures)
	}
	if !errors.Is(r.Failures[0].Err, ErrCellTimeout) {
		t.Fatalf("hung cell error = %v, want ErrCellTimeout", r.Failures[0].Err)
	}
	for _, i := range []int{0, 1, 3} {
		if r.Status[i] != StatusOK || r.Values[i] != i {
			t.Fatalf("healthy cell %d = (%v, %d)", i, r.Status[i], r.Values[i])
		}
	}
	close(hang)
	settlesTo(t, base)
}

// settlesTo fails the test unless the goroutine count is back to base
// (or below) within a second.
func settlesTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second later, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RunGrid enumerates row-major: all ys for xs[0], then xs[1], …
func TestRunGridOrder(t *testing.T) {
	r := RunGrid(context.Background(), []string{"a", "b"}, []int{1, 2, 3}, Options{},
		func(_ context.Context, x string, y int) (string, error) {
			return fmt.Sprintf("%s%d", x, y), nil
		})
	want := []string{"a1", "a2", "a3", "b1", "b2", "b3"}
	for i, w := range want {
		if r.Values[i] != w {
			t.Fatalf("cell %d = %q, want %q", i, r.Values[i], w)
		}
	}
}
