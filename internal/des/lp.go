package des

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Share-nothing parallel DES: an LPSet is a group of logical processes
// (LPs), each owning a private Env — its own event queue, clock and
// resources — with no way for one LP's event to reach another. A
// workload qualifies when its ranks interact only through quantities
// computed before the run (gradsync's per-step barrier bounds); Run
// then drains every LP to the horizon in one embarrassingly parallel
// pass.
//
// Determinism is strict, not just statistical: each LP is executed
// single-threaded by exactly one worker and nothing is shared but the
// optional SharedGuard counter, so Run(workers=N) leaves every LP in
// the state Run(workers=1) does, for every N.

// LPSet is a group of independent logical processes. Construct with
// NewLPSet, populate each Env(i), then Run.
type LPSet struct {
	envs   []*Env
	shared *SharedGuard
}

// NewLPSet returns n empty logical processes.
func NewLPSet(n int) *LPSet {
	if n < 1 {
		panic(fmt.Sprintf("des: LPSet of %d LPs", n))
	}
	s := &LPSet{envs: make([]*Env, n)}
	for i := range s.envs {
		s.envs[i] = NewEnv()
	}
	return s
}

// Env returns LP i's private environment. Populate it exactly as a
// sequential simulation would; during Run it is advanced by one worker,
// so machine code needs no locking.
func (s *LPSet) Env(i int) *Env { return s.envs[i] }

// SetSharedGuard attaches one joint event budget to every LP (see
// SharedGuard): MaxEvents is then enforced globally across the set, not
// per LP, matching what the same budget means on a sequential Env.
func (s *LPSet) SetSharedGuard(g *SharedGuard) {
	s.shared = g
	for _, e := range s.envs {
		e.ShareGuard(g)
	}
}

// Err returns the run's guard error, or nil after a healthy run. A
// tripped joint budget is reported as the budget alone: which LP tripped
// it, and at what local time, depends on worker scheduling. Otherwise
// Err is the first per-Env guard error in LP order.
func (s *LPSet) Err() error {
	if s.shared != nil && s.shared.Exceeded() {
		return &BudgetExceeded{Guard: Guard{MaxEvents: s.shared.max}, Events: s.shared.max, joint: true}
	}
	for _, e := range s.envs {
		if e.guardErr != nil {
			return e.guardErr
		}
	}
	return nil
}

// Shutdown drops every LP's queued events; call when abandoning a set
// whose horizon stopped early.
func (s *LPSet) Shutdown() {
	for _, e := range s.envs {
		e.Shutdown()
	}
}

// Run advances every LP to virtual time `until` (inclusive, like
// Env.RunUntil) on up to `workers` goroutines and returns the latest
// event time executed anywhere (0 when nothing ran). Every LP ends in
// the same state for every workers value. After a guarded run, check
// Err.
func (s *LPSet) Run(workers int, until float64) float64 {
	if workers = min(workers, len(s.envs)); workers > 1 {
		s.fanOut(workers, until)
	} else {
		for _, e := range s.envs {
			e.RunUntil(until)
		}
	}
	end := 0.0
	for _, e := range s.envs {
		if e.now > end {
			end = e.now
		}
	}
	return end
}

// fanOut drains the LPs on `workers` goroutines, each claiming the next
// undrained LP, and joins them. A panic in any LP is re-raised on the
// calling goroutine after the join, so the sweep guardrails' per-cell
// panic isolation keeps working under parallel execution.
func (s *LPSet) fanOut(workers int, until float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for i := next.Add(1) - 1; i < int64(len(s.envs)); i = next.Add(1) - 1 {
				s.envs[i].RunUntil(until)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
