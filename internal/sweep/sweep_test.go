package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Values land in index order and none is missing, at worker counts
// below, at and above the cell count.
func TestRunOrderAndCompleteness(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	for _, workers := range []int{1, 2, 8, 100} {
		Workers = workers
		r := Run(context.Background(), 25, Options{}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if !r.OK() {
			t.Fatal(r.Err())
		}
		for i, v := range r.Values {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// Cancellation stops dispatch on the parallel pool too, not only on the
// serial path TestRunCancellationMarksSkippedCells walks.
func TestRunCancelledStopsDispatch(t *testing.T) {
	prev := Workers
	defer func() { Workers = prev }()
	for _, workers := range []int{1, 4} {
		Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		r := Run(ctx, 1000, Options{}, func(_ context.Context, i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(r.Err(), context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, r.Err())
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop the sweep (%d cells ran)", workers, n)
		}
	}
}

// A cancel that lands after the last cell finished cancelled nothing:
// the sweep is complete and keeps its values.
func TestRunCancelAfterLastCellIsComplete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := Run(ctx, 1, Options{}, func(_ context.Context, i int) (int, error) {
		cancel()
		return 7, nil
	})
	if !r.OK() || r.CtxErr != nil {
		t.Fatalf("complete sweep reported as cancelled: CtxErr = %v, failures = %v", r.CtxErr, r.Failures)
	}
	if got := r.Completed(); len(got) != 1 || got[0] != 7 || r.Values[0] != 7 {
		t.Fatalf("Values = %v, Completed() = %v, want the cell's 7", r.Values, got)
	}
}

func TestRunEmpty(t *testing.T) {
	r := Run(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Error("cell ran in an empty sweep")
		return i, nil
	})
	if !r.OK() || len(r.Values) != 0 || len(r.Completed()) != 0 {
		t.Fatalf("empty sweep: values %v, err %v", r.Values, r.Err())
	}
	g := RunGrid(context.Background(), []string{"a"}, []int{}, Options{},
		func(_ context.Context, x string, y int) (int, error) { return y, nil })
	if !g.OK() || len(g.Values) != 0 {
		t.Fatalf("empty grid: values %v, err %v", g.Values, g.Err())
	}
}
