package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// A wedged cell costs the sweep one worker, not its width: the watchdog
// abandons the cell at its deadline and a replacement worker runs the
// cells still unclaimed. Each worker runs its cells on one context of its
// own, so three distinct contexts over the eight cells means the
// replacement ran.
func TestWatchdogReplacesAbandonedWorker(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 2
	base := runtime.NumGoroutine()
	const timeout = 150 * time.Millisecond
	hang, wedged := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	ctxs := map[context.Context]bool{}
	r := Run(context.Background(), 8, Options{Timeout: timeout}, func(ctx context.Context, i int) (int, error) {
		mu.Lock()
		ctxs[ctx] = true
		mu.Unlock()
		switch i {
		case 0:
		case 1:
			close(wedged)
			<-hang
		default:
			// The wedge starts first, so the live worker has claimed at
			// most four of these six cells when it is abandoned.
			<-wedged
			time.Sleep(timeout / 3)
		}
		return i, nil
	})
	if len(r.Failures) != 1 || r.Failures[0].Index != 1 || !errors.Is(r.Failures[0].Err, ErrCellTimeout) {
		t.Fatalf("failures = %v, want exactly cell 1 timed out", r.Failures)
	}
	for i := 0; i < 8; i++ {
		if i != 1 && (r.Status[i] != StatusOK || r.Values[i] != i) {
			t.Fatalf("healthy cell %d = (%v, %d)", i, r.Status[i], r.Values[i])
		}
	}
	if len(ctxs) != 3 {
		t.Fatalf("cells ran on %d worker contexts, want 3 (two workers and a replacement)", len(ctxs))
	}
	close(hang)
	settlesTo(t, base)
}

// Each worker re-arms one timer per cell: cells that each take most of
// the deadline, back to back on one worker, all complete, so no timer
// armed for an earlier cell cuts a later one short.
func TestWatchdogIgnoresStaleTimer(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 1
	base := runtime.NumGoroutine()
	const timeout = 150 * time.Millisecond
	r := Run(context.Background(), 5, Options{Timeout: timeout}, func(_ context.Context, i int) (int, error) {
		time.Sleep(timeout * 6 / 10)
		return i, nil
	})
	if !r.OK() {
		t.Fatalf("cells under their deadline failed: %v", r.Err())
	}
	settlesTo(t, base)
}

// Cancelling the sweep while a cell is wedged fails that cell with the
// context's error, not a timeout, and leaves the unclaimed cells
// skipped; Run returns without waiting for the wedged cell.
func TestWatchdogParentCancelWhileWedged(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 1
	base := runtime.NumGoroutine()
	hang := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := Run(ctx, 10, Options{Timeout: time.Hour}, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			cancel()
			<-hang
		}
		return i, nil
	})
	if !errors.Is(r.CtxErr, context.Canceled) {
		t.Fatalf("CtxErr = %v, want Canceled", r.CtxErr)
	}
	if len(r.Failures) != 1 || r.Failures[0].Index != 2 ||
		!errors.Is(r.Failures[0].Err, context.Canceled) || errors.Is(r.Failures[0].Err, ErrCellTimeout) {
		t.Fatalf("failures = %v, want cell 2 failed with Canceled", r.Failures)
	}
	for i := 0; i < 10; i++ {
		want := StatusSkipped
		switch {
		case i < 2:
			want = StatusOK
		case i == 2:
			want = StatusFailed
		}
		if r.Status[i] != want {
			t.Fatalf("cell %d = %v, want %v", i, r.Status[i], want)
		}
	}
	close(hang)
	settlesTo(t, base)
}

// A cell that watches its ctx sees it cancelled at its deadline, and the
// next cell starts on a live context of its own.
func TestWatchdogCancelsCellCtxAtDeadline(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 1
	base := runtime.NumGoroutine()
	const timeout = 30 * time.Millisecond
	waited := make(chan time.Duration, 1)
	start := time.Now()
	r := Run(context.Background(), 2, Options{Timeout: timeout}, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done()
			waited <- time.Since(start)
			return 0, ctx.Err()
		}
		return i, ctx.Err()
	})
	if len(r.Failures) != 1 || r.Failures[0].Index != 0 || !errors.Is(r.Failures[0].Err, ErrCellTimeout) {
		t.Fatalf("failures = %v, want cell 0 timed out", r.Failures)
	}
	if r.Status[1] != StatusOK {
		t.Fatalf("cell after the timeout = %v", r.Status[1])
	}
	if d := <-waited; d < timeout {
		t.Fatalf("cell ctx cancelled after %v, before its %v deadline", d, timeout)
	}
	settlesTo(t, base)
}

// A timed sweep pays for its workers and its watchdog once: no
// goroutine, timer, channel or context per cell.
func TestTimedSweepAllocatesPerSweepNotPerCell(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 2
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			Run(context.Background(), n, Options{Timeout: time.Hour}, func(_ context.Context, i int) (int, error) {
				return i, nil
			})
		})
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Fatalf("%v allocations for 8 cells, %v for 64", a8, a64)
	}
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

// markedCtx returns the ctx Do hands its cell, for ctx.
func markedCtx(ctx context.Context) context.Context {
	var marked context.Context
	Do(ctx, func(c context.Context, _ int) (int, error) { marked = c; return 0, nil })
	return marked
}

// Within Do's run, a timed sweep whose cells' deadlines cannot come
// before Do's caller abandons the run starts no watchdog: its one cell
// runs on the calling goroutine and it allocates what an untimed sweep
// does. A cell deadline that can fire first keeps its watchdog.
func TestTimedRunUnderDoArmsNoWatchdog(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	marked := markedCtx(ctx)
	cell := func(_ context.Context, i int) (int, error) { return i, nil }
	allocs := func(ctx context.Context, opts Options) float64 {
		return testing.AllocsPerRun(50, func() { Run(ctx, 4, opts, cell) })
	}
	untimed, skipped, plain := allocs(marked, Options{}), allocs(marked, Options{Timeout: time.Hour}), allocs(ctx, Options{Timeout: time.Hour})
	if skipped != untimed || plain <= untimed {
		t.Fatalf("allocations: %v untimed, %v timed under Do, %v timed under a plain deadline; want the first two equal and below the third",
			untimed, skipped, plain)
	}
	base := runtime.NumGoroutine()
	r := Run(marked, 1, Options{Timeout: time.Hour}, func(context.Context, int) (int, error) {
		return runtime.NumGoroutine(), nil
	})
	if r.Values[0] > base {
		t.Fatalf("%d goroutines while the cell ran, %d before: a watchdog worker started", r.Values[0], base)
	}
	r = Run(marked, 1, Options{Timeout: 20 * time.Millisecond}, func(ctx context.Context, _ int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if len(r.Failures) != 1 || !errors.Is(r.Failures[0].Err, ErrCellTimeout) {
		t.Fatalf("failures = %v, want the cell timed out at its own, earlier deadline", r.Failures)
	}
}

// A bare ctx deadline does not stand for Do's caller: a timed sweep
// under it still returns at the deadline while its cell is wedged.
func TestTimedRunUnderPlainDeadlineAbandonsWedgedCell(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	hang := make(chan struct{})
	start := time.Now()
	r := Run(ctx, 1, Options{Timeout: time.Hour}, func(context.Context, int) (int, error) {
		<-hang
		return 0, nil
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run waited %v for a wedged cell", elapsed)
	}
	if !errors.Is(r.CtxErr, context.DeadlineExceeded) || r.Status[0] != StatusFailed {
		t.Fatalf("CtxErr = %v, cell %v; want DeadlineExceeded and a failed cell", r.CtxErr, r.Status[0])
	}
	close(hang)
	settlesTo(t, base)
}

// Do isolates a panic as a one-cell Run reports it, and hands back a
// cell's own error wrapped the same way.
func TestDoIsolatesPanics(t *testing.T) {
	_, err := Do(context.Background(), func(context.Context, int) (int, error) { panic("boom") })
	var ce *CellError
	var pe *PanicError
	if !errors.As(err, &ce) || ce.Index != 0 || !errors.As(err, &pe) || pe.Value != "boom" || !strings.Contains(ce.Stack, "panic") {
		t.Fatalf("Do of a panicking cell = %v, want a cell 0 *CellError over the *PanicError, with its stack", err)
	}
	want := errors.New("cell failed")
	if _, err := Do(context.Background(), func(context.Context, int) (int, error) { return 0, want }); !errors.As(err, &ce) || ce.Err != want {
		t.Fatalf("Do of a failing cell = %v, want a *CellError over its error", err)
	}
}

// InOrder evaluates its cells in index order on the calling goroutine
// whatever Workers says, and on one watchdog worker when timed.
func TestInOrderRunsOnCallingGoroutine(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	Workers = 8
	base := runtime.NumGoroutine()
	for _, opts := range []Options{{}, {Timeout: time.Hour}} {
		var order []int
		r := InOrder(context.Background(), 10, opts, func(_ context.Context, i int) (int, error) {
			order = append(order, i)
			return runtime.NumGoroutine() - base, nil
		})
		want := 0
		if opts.Timeout > 0 {
			want = 1
		}
		for i, extra := range r.Values {
			if order[i] != i || extra > want {
				t.Fatalf("timeout %v: cell %d ran %dth with %d extra goroutines, want in order with at most %d", opts.Timeout, i, order[i], extra, want)
			}
		}
	}
}
