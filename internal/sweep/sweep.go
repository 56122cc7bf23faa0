// Package sweep is the parallel parameter-sweep runner shared by every
// experiment harness: a bounded worker pool that fans independent cells
// across cores, and on top of it Run and its cartesian form RunGrid
// (report.go) with panic isolation, per-cell deadlines and per-cell
// completion state.
//
// Each cell builds its own isolated des.Env and cost model, runs
// single-threaded and bit-deterministic, and writes only its own result
// slot — so results are identical at any worker count and the slice
// order never depends on scheduling.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers caps the worker pool used to fan independent sweep cells
// across cores; 0 (the default) uses GOMAXPROCS, 1 forces serial
// execution.
var Workers int

// forEachCell dispatches cell(0..n-1) over the bounded worker pool,
// stopping dispatch (but not in-flight cells) when ctx is cancelled.
func forEachCell(ctx context.Context, n int, cell func(i int)) {
	workers := Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			cell(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
}
