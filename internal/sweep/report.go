package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// This file is the hardened sweep runner: the guardrail layer that lets
// a thousand-cell campaign survive one bad cell. Every cell runs with
// panic isolation; Options add a per-cell wall-clock deadline (so a
// wedged cell is abandoned, not waited on forever). The Report result
// carries per-cell completion state, so a sweep returns every completed
// cell plus structured failures instead of being all-or-nothing — and so
// cancelled sweeps can tell a real zero-value result from a cell that
// never started.

// Status classifies one cell of a Report.
type Status uint8

// The per-cell completion states of a hardened sweep.
const (
	// StatusSkipped: the cell never started — the sweep was cancelled
	// before a worker claimed it. Its value slot holds a zero value that
	// is NOT a result.
	StatusSkipped Status = iota
	// StatusOK: the cell completed; its value slot is valid.
	StatusOK
	// StatusFailed: the cell panicked, timed out, or returned an error;
	// its failure is in Report.Failures.
	StatusFailed
)

// String names the status for reports and tests.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFailed:
		return "failed"
	default:
		return "skipped"
	}
}

// PanicError wraps a panic recovered from a sweep cell, so one
// misbehaving cell surfaces as a structured per-cell failure instead of
// killing the whole process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error renders the panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ErrCellTimeout marks a cell abandoned at its deadline
// (Options.Timeout): the cell was still running — possibly wedged on a
// barrier — when the sweep gave up on it.
var ErrCellTimeout = errors.New("sweep: cell deadline exceeded")

// CellError is the structured failure of one sweep cell.
type CellError struct {
	// Index is the cell's position in enumeration order.
	Index int
	// Err is the cell's error; a *PanicError for panics,
	// ErrCellTimeout (wrapped) for abandoned cells.
	Err error
	// Stack is the goroutine stack captured at the panic site, empty for
	// non-panic failures.
	Stack string
}

// Error summarizes the failure without the stack.
func (e *CellError) Error() string {
	return fmt.Sprintf("sweep: cell %d failed: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Options are the guardrail knobs of a hardened sweep. The zero value
// runs every cell inline with panic isolation only — no deadline —
// which is the zero-cost configuration healthy sweeps use.
type Options struct {
	// Timeout is the per-cell wall-clock deadline (0 = none). A cell
	// past it fails with ErrCellTimeout, its ctx is cancelled and a
	// replacement worker takes its place; a cell that ignores its ctx
	// keeps the abandoned worker until it returns (forever, if truly
	// wedged).
	Timeout time.Duration
}

// Report is the structured outcome of a hardened sweep: per-cell values,
// per-cell completion state, and the failures in index order.
type Report[T any] struct {
	// Values holds one slot per cell in enumeration order. Only cells
	// whose Status is StatusOK hold results; Failed and Skipped slots
	// hold zero values.
	Values []T
	// Status classifies each cell (same indexing as Values).
	Status []Status
	// Failures lists every failed cell in index order.
	Failures []*CellError
	// CtxErr is the sweep context's error when cancellation left some
	// cell failed or skipped, nil otherwise.
	CtxErr error
}

// OK reports whether every cell completed successfully.
func (r *Report[T]) OK() bool { return r.CtxErr == nil && len(r.Failures) == 0 }

// Err summarizes the sweep: the context error if it was cancelled, else
// the first cell failure, else nil.
func (r *Report[T]) Err() error {
	if r.CtxErr != nil {
		return r.CtxErr
	}
	if len(r.Failures) > 0 {
		return r.Failures[0]
	}
	return nil
}

// Completed returns the values of the StatusOK cells in enumeration
// order — the partial-result view that drops failed and never-started
// cells instead of passing their zero values off as data.
func (r *Report[T]) Completed() []T {
	if r.OK() {
		return r.Values
	}
	out := make([]T, 0, len(r.Values))
	for i, v := range r.Values {
		if r.Status[i] == StatusOK {
			out = append(out, v)
		}
	}
	return out
}

// Run evaluates f(ctx, 0..n-1) on the bounded worker pool with the full
// guardrail stack: panic isolation always, plus opts' per-cell deadline.
// Every cell ends StatusOK, StatusFailed or StatusSkipped, and the sweep
// always returns every completed cell. Within Do's run, when Do's caller
// abandons the run before any cell's deadline could pass, the sweep runs
// untimed: the caller's deadline is the one that fires.
func Run[T any](ctx context.Context, n int, opts Options, f func(ctx context.Context, i int) (T, error)) *Report[T] {
	return run(ctx, n, poolSize(n), opts, f)
}

// InOrder is Run for cells that cost less to evaluate than to hand to
// another goroutine, such as microsecond closed forms: it evaluates them
// in index order, on the calling goroutine unless a watchdog is armed.
func InOrder[T any](ctx context.Context, n int, opts Options, f func(ctx context.Context, i int) (T, error)) *Report[T] {
	return run(ctx, n, 1, opts, f)
}

// run is Run on a pool of workers.
func run[T any](ctx context.Context, n, workers int, opts Options, f func(ctx context.Context, i int) (T, error)) *Report[T] {
	r := &Report[T]{Values: make([]T, n), Status: make([]Status, n)}
	if n == 0 {
		return r
	}
	// Per-slot failure storage, one write per cell (by its worker or the
	// watchdog that abandoned it); gathered into index order afterwards.
	fails := make([]*CellError, n)
	record := func(i int, v T, err error, stack string) {
		if err != nil {
			r.Status[i] = StatusFailed
			fails[i] = &CellError{Index: i, Err: err, Stack: stack}
		} else {
			r.Values[i] = v
			r.Status[i] = StatusOK
		}
	}
	if opts.Timeout > 0 && !abandonedFirst(ctx, opts.Timeout) {
		runTimed(ctx, n, workers, opts.Timeout, f, record)
	} else {
		forEachCell(ctx, n, workers, func(i int) {
			v, err, stack := protect(ctx, i, f)
			record(i, v, err, stack)
		})
	}
	for i, ce := range fails {
		if ce != nil {
			r.Failures = append(r.Failures, ce)
		}
		// A cancel that lands after the last cell finished cancelled
		// nothing: only a sweep with a cell missing reports it.
		if r.Status[i] != StatusOK && r.CtxErr == nil {
			r.CtxErr = ctx.Err()
		}
	}
	return r
}

// RunGrid is Run over the row-major cartesian product of xs × ys — the
// (backend, size) and (ablated constant, scale) loops of the experiment
// harnesses. Results keep enumeration order: all ys for xs[0], then all
// ys for xs[1], …
func RunGrid[X, Y, T any](ctx context.Context, xs []X, ys []Y, opts Options,
	f func(ctx context.Context, x X, y Y) (T, error)) *Report[T] {
	return Run(ctx, len(xs)*len(ys), opts, func(ctx context.Context, i int) (T, error) {
		return f(ctx, xs[i/len(ys)], ys[i%len(ys)])
	})
}

// worker is a timed sweep's goroutine, with the ctx and timer it reuses.
type worker struct {
	ctx      context.Context
	cancel   context.CancelFunc
	timer    *time.Timer
	cell     int // the cell in flight; -1 between cells and once abandoned
	deadline time.Time
}

// runTimed runs a sweep's cells inline on worker goroutines under a
// per-cell deadline. The caller only waits, so it returns at a deadline
// even when a lone cell wedges; cancelling ctx fails every cell in
// flight with ctx.Err().
func runTimed[T any](ctx context.Context, n, pool int, timeout time.Duration,
	f func(context.Context, int) (T, error), record func(int, T, error, string)) {
	var (
		mu      sync.Mutex     // guards next, workers and each worker's cell and record
		wg      sync.WaitGroup // a count per worker neither retired nor abandoned
		next    int            // the first unclaimed cell
		workers []*worker
		spawn   func() // starts a worker; the caller holds mu
	)
	// abandon fails w's cell with err and gives up on w, whose goroutine
	// exits if the cell ever returns. The caller holds mu.
	abandon := func(w *worker, err error) {
		var zero T
		record(w.cell, zero, err, "")
		w.cell = -1
		w.cancel()
		wg.Done()
	}
	// work runs cells on w until none is left, the sweep is cancelled (a
	// claimed cell it does not start stays StatusSkipped) or w is abandoned.
	work := func(w *worker) {
		defer w.cancel()
		defer w.timer.Stop()
		mu.Lock()
		defer mu.Unlock()
		for {
			i := next
			next++
			if i >= n || ctx.Err() != nil {
				w.cell = -1
				wg.Done()
				return
			}
			w.cell, w.deadline = i, time.Now().Add(timeout)
			w.timer.Reset(timeout)
			mu.Unlock()
			v, err, stack := protect(w.ctx, i, f)
			mu.Lock()
			if w.cell != i {
				return // abandoned while it ran: its outcome is dropped
			}
			record(i, v, err, stack)
		}
	}
	// expire is w's timer callback. It checks the cell's own deadline, so
	// a late fire armed for an earlier cell does nothing.
	expire := func(w *worker) {
		mu.Lock()
		defer mu.Unlock()
		if w.cell < 0 || time.Now().Before(w.deadline) {
			return
		}
		err := ctx.Err() // parent cancellation, not a cell timeout
		if err == nil {
			spawn() // before abandon's Done, so wg never reads zero early
			err = fmt.Errorf("%w (after %v)", ErrCellTimeout, timeout)
		}
		abandon(w, err)
	}
	spawn = func() {
		w := &worker{cell: -1}
		w.ctx, w.cancel = context.WithCancel(ctx)
		w.timer = time.AfterFunc(timeout, func() { expire(w) })
		workers = append(workers, w)
		wg.Add(1)
		go work(w)
	}
	defer context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, w := range workers {
			if w.cell >= 0 {
				abandon(w, ctx.Err())
			}
		}
	})()
	mu.Lock()
	for range pool {
		spawn()
	}
	mu.Unlock()
	wg.Wait()
}

// abandonsKey keys the ctx of Do's run, whose deadline Do's caller
// enforces, in every context derived from it.
type abandonsKey struct{}

// Do runs cell 0 of f on the calling goroutine with panic isolation; a
// failure comes back as the *CellError a one-cell Run would report. Its
// caller abandons the run at ctx's deadline, and the ctx f receives says
// so: a timed Run nested in f whose cells' deadlines cannot come first
// starts no watchdog goroutine or timer.
func Do[T any](ctx context.Context, f func(ctx context.Context, i int) (T, error)) (T, error) {
	v, err, stack := protect(context.WithValue(ctx, abandonsKey{}, ctx), 0, f)
	if err != nil {
		return v, &CellError{Err: err, Stack: stack}
	}
	return v, nil
}

// abandonedFirst reports whether ctx lies within Do's run and Do's
// caller abandons that run no later than a cell deadline timeout from
// now, so a watchdog could never fire first.
func abandonedFirst(ctx context.Context, timeout time.Duration) bool {
	outer, ok := ctx.Value(abandonsKey{}).(context.Context)
	if !ok {
		return false
	}
	d, ok := outer.Deadline()
	return ok && !d.After(time.Now().Add(timeout))
}

// protect runs f with panic isolation, capturing the stack at the panic
// site so the report can say where the cell died.
func protect[T any](ctx context.Context, i int, f func(context.Context, int) (T, error)) (val T, err error, stack string) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero T
			val, err, stack = zero, &PanicError{Value: rec}, string(debug.Stack())
		}
	}()
	v, e := f(ctx, i)
	return v, e, ""
}
