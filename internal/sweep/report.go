package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
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
// (Options.Timeout): the cell's goroutine was still running — possibly
// wedged on a barrier — when the sweep gave up on it.
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
	// Timeout is the per-cell wall-clock deadline (0 = none). When
	// set, each cell runs on its own goroutine and is abandoned at the
	// deadline with ErrCellTimeout: a cell wedged on a barrier cannot
	// hang the sweep, but its goroutine leaks by design — prefer cells
	// that observe their ctx so abandonment is the last resort.
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
// always returns every completed cell.
func Run[T any](ctx context.Context, n int, opts Options, f func(ctx context.Context, i int) (T, error)) *Report[T] {
	r := &Report[T]{Values: make([]T, n), Status: make([]Status, n)}
	if n == 0 {
		return r
	}
	// Per-slot failure storage keeps workers lock-free (each writes only
	// its own cells); gathered into index order afterwards.
	fails := make([]*CellError, n)
	cell := func(i int) {
		if v, err, stack := runCell(ctx, i, opts.Timeout, f); err != nil {
			r.Status[i] = StatusFailed
			fails[i] = &CellError{Index: i, Err: err, Stack: stack}
		} else {
			r.Values[i] = v
			r.Status[i] = StatusOK
		}
	}
	forEachCell(ctx, n, cell)
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

// runCell executes one cell. Without a timeout it runs inline on
// the worker (zero extra cost); with one it runs on its own goroutine so
// a wedged cell can be abandoned at the deadline.
func runCell[T any](ctx context.Context, i int, timeout time.Duration, f func(context.Context, int) (T, error)) (T, error, string) {
	if timeout <= 0 {
		return protect(ctx, i, f)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type outcome struct {
		val   T
		err   error
		stack string
	}
	ch := make(chan outcome, 1)
	go func() {
		v, e, s := protect(actx, i, f)
		ch <- outcome{v, e, s}
	}()
	select {
	case o := <-ch:
		return o.val, o.err, o.stack
	case <-actx.Done():
		// Abandon the cell: its goroutine keeps running until it
		// observes actx (or leaks, if it is truly wedged) — the sweep
		// must survive either way.
		var zero T
		if err := ctx.Err(); err != nil {
			return zero, err, "" // parent cancellation, not a cell timeout
		}
		return zero, fmt.Errorf("%w (after %v)", ErrCellTimeout, timeout), ""
	}
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
