package des

import (
	"fmt"
	"math"
	"sync"
)

// Conservative parallel DES: an LPSet partitions a simulation into
// logical processes (LPs), each owning a private Env — its own event
// queue, clock and resources — and advances them concurrently under a
// lookahead bound.
//
// Cross-LP interaction happens only through declared links (Connect),
// each carrying the minimum virtual latency of the edge it models. The
// global minimum over all links is the lookahead L, and Run executes
// LBTS-style windows: every LP drains its events in [floor, floor+L)
// in parallel (floor = the earliest pending event anywhere), then a
// barrier delivers the window's buffered cross-LP messages in canonical
// (destination, source, send-order) order. A message sent at t with
// delay >= its link latency arrives at >= floor+L, i.e. never inside
// the window that sent it, so no LP can observe an event out of
// timestamp order — the classic conservative-synchronization argument.
//
// Determinism is strict, not just statistical: each LP's window is
// executed single-threaded by exactly one worker, and the barrier
// merge order is a pure function of the partition, so Run(workers=N)
// produces bit-identical state to Run(workers=1) for every N. The
// experiment harnesses build on this to keep parallel metrics
// byte-identical to the sequential engine.
//
// Degenerate shapes fall back safely:
//
//   - No links at all (lookahead +Inf): LPs are independent and drain
//     to the horizon in one embarrassingly parallel pass.
//   - Any zero-latency link (lookahead 0): windows cannot make progress
//     in parallel, so Run switches to a sequential global merge loop
//     that always executes the globally earliest (t, LP index) event —
//     correctness never depends on the parallel path.

// lpLink is one declared cross-LP edge with its minimum latency.
type lpLink struct {
	src, dst int
	lookS    float64
}

// lpMsg is one buffered cross-LP message: a callback to run on the
// destination LP at absolute virtual time at.
type lpMsg struct {
	at  float64
	fn  func()
	dst int
}

// LPSet is a group of logical processes advanced under conservative
// (lookahead-bounded) synchronization. Construct with NewLPSet, wire
// cross-LP edges with Connect, populate each Env(i), then Run.
type LPSet struct {
	envs  []*Env
	links []lpLink
	// linkLook holds the minimum declared latency per (src, dst) edge,
	// enforced as the Send contract.
	linkLook map[[2]int]float64
	// look is the global lookahead: the minimum over all link
	// latencies, +Inf with no links.
	look float64
	// outbox buffers each source LP's cross-LP sends during a window;
	// per-source slices, so window execution appends without locks.
	outbox [][]lpMsg
	// merged is set while the zero-lookahead fallback loop runs: Send
	// then delivers directly instead of buffering to the barrier.
	merged bool
	shared *SharedGuard
}

// NewLPSet returns n empty logical processes with no cross-LP links.
func NewLPSet(n int) *LPSet {
	if n < 1 {
		panic(fmt.Sprintf("des: LPSet of %d LPs", n))
	}
	s := &LPSet{
		envs:     make([]*Env, n),
		linkLook: map[[2]int]float64{},
		look:     math.Inf(1),
		outbox:   make([][]lpMsg, n),
	}
	for i := range s.envs {
		s.envs[i] = NewEnv()
	}
	return s
}

// N reports the number of logical processes.
func (s *LPSet) N() int { return len(s.envs) }

// Env returns LP i's private environment. Populate it exactly as a
// sequential simulation would; during Run it is advanced by one worker
// at a time, so machine code needs no locking.
func (s *LPSet) Env(i int) *Env { return s.envs[i] }

// Connect declares a directed cross-LP edge from src to dst whose
// messages take at least lookaheadS virtual seconds — the modeled link
// latency that bounds how far LPs may run ahead of each other. A
// zero lookahead is legal but forces the sequential fallback (see
// Lookahead). Declaring the same edge twice keeps the smaller latency.
func (s *LPSet) Connect(src, dst int, lookaheadS float64) {
	s.checkLP(src)
	s.checkLP(dst)
	if src == dst {
		panic("des: LP self-link (schedule on the LP's own Env instead)")
	}
	if lookaheadS < 0 || math.IsNaN(lookaheadS) {
		panic(fmt.Sprintf("des: link lookahead %v", lookaheadS))
	}
	key := [2]int{src, dst}
	if prev, ok := s.linkLook[key]; ok {
		if lookaheadS < prev {
			s.linkLook[key] = lookaheadS
		}
	} else {
		s.linkLook[key] = lookaheadS
		s.links = append(s.links, lpLink{src: src, dst: dst, lookS: lookaheadS})
	}
	if lookaheadS < s.look {
		s.look = lookaheadS
	}
}

// Lookahead returns the global lookahead bound: the minimum declared
// link latency, or +Inf when no links exist (fully independent LPs).
func (s *LPSet) Lookahead() float64 { return s.look }

// SequentialFallback reports whether Run will execute the set on the
// sequential global-merge loop: true exactly when some link has zero
// lookahead, leaving no window in which LPs could safely run ahead.
func (s *LPSet) SequentialFallback() bool { return len(s.links) > 0 && s.look <= 0 }

// checkLP validates an LP index.
func (s *LPSet) checkLP(i int) {
	if i < 0 || i >= len(s.envs) {
		panic(fmt.Sprintf("des: LP %d of %d", i, len(s.envs)))
	}
}

// Send schedules fn on LP dst at src's current time plus delayS. It is
// the only legal way for one LP's event to affect another, and must be
// called from code executing on src's Env. The delay must be at least
// the Connect-declared latency of the (src, dst) link: that is the
// conservative contract the window synchronization relies on, so
// violating it (or sending over an undeclared edge) panics.
func (s *LPSet) Send(src, dst int, delayS float64, fn func()) {
	look, ok := s.linkLook[[2]int{src, dst}]
	if !ok {
		panic(fmt.Sprintf("des: Send over undeclared link %d->%d", src, dst))
	}
	if delayS < look {
		panic(fmt.Sprintf("des: Send %d->%d with delay %v below link lookahead %v", src, dst, delayS, look))
	}
	at := s.envs[src].now + delayS
	if s.merged {
		// Zero-lookahead fallback: the global loop keeps every LP at the
		// same frontier, so direct delivery is safe and immediate.
		s.envs[dst].Schedule(at, fn)
		return
	}
	s.outbox[src] = append(s.outbox[src], lpMsg{at: at, fn: fn, dst: dst})
}

// SetSharedGuard attaches one joint event budget to every LP (see
// SharedGuard): MaxEvents is then enforced globally across the set, not
// per LP, matching what the same budget means on a sequential Env.
func (s *LPSet) SetSharedGuard(g *SharedGuard) {
	s.shared = g
	for _, e := range s.envs {
		e.ShareGuard(g)
	}
}

// Err returns the first LP's recorded guard error (scanning in LP
// order), or nil after a healthy run.
func (s *LPSet) Err() error {
	for _, e := range s.envs {
		if e.guardErr != nil {
			return e.guardErr
		}
	}
	return nil
}

// Executed reports the total events executed across all LPs.
func (s *LPSet) Executed() int64 {
	var n int64
	for _, e := range s.envs {
		n += e.executed
	}
	return n
}

// Shutdown terminates every LP's live processes and drops queued
// events; call when abandoning a set whose horizon stopped early.
func (s *LPSet) Shutdown() {
	for _, e := range s.envs {
		e.Shutdown()
	}
}

// Run advances every LP to virtual time `until` (inclusive, like
// Env.RunUntil) using up to `workers` concurrent event loops, and
// returns the latest event time executed anywhere. Results are
// bit-identical for every workers value; workers only sets how many
// LP windows execute at once. With zero lookahead Run degrades to the
// sequential global merge loop (see SequentialFallback). After a
// guarded run, check Err.
func (s *LPSet) Run(workers int, until float64) float64 {
	if workers < 1 {
		workers = 1
	}
	// Deliver sends buffered before Run (setup-time cross-LP wiring).
	s.deliver()
	if s.SequentialFallback() {
		return s.runMerged(until)
	}
	for {
		floor := math.Inf(1)
		for _, e := range s.envs {
			if t, ok := e.NextT(); ok && t < floor {
				floor = t
			}
		}
		if floor > until || math.IsInf(floor, 1) {
			break
		}
		if limit := floor + s.look; limit <= floor {
			// The lookahead is positive but vanishes against floor's
			// magnitude (floor+look rounds to floor), so no window can
			// open. Guarantee progress with one globally-earliest step —
			// the same canonical (t, LP index) order as the fallback loop.
			if !s.stepEarliest() {
				break
			}
		} else if limit > until {
			// The window spans the whole remaining horizon: drain it with
			// RunUntil's inclusive boundary, exactly like the sequential
			// engine's final RunUntil(until).
			s.each(workers, func(i int) { s.envs[i].RunUntil(until) })
		} else {
			s.each(workers, func(i int) { s.envs[i].RunBefore(limit) })
		}
		s.deliver()
		if s.shared != nil && s.Err() != nil {
			break
		}
	}
	return s.maxNow()
}

// runMerged is the zero-lookahead sequential fallback: one global loop
// that always executes the earliest (t, LP index) event across the
// set, delivering cross-LP sends directly. It is exact for any link
// latency, including zero.
func (s *LPSet) runMerged(until float64) float64 {
	s.merged = true
	defer func() { s.merged = false }()
	for {
		best, bestT := -1, math.Inf(1)
		for i, e := range s.envs {
			if t, ok := e.NextT(); ok && t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 || bestT > until {
			break
		}
		if !s.envs[best].stepOne() {
			break // guard tripped
		}
	}
	return s.maxNow()
}

// stepEarliest executes the globally earliest (t, LP index) event,
// reporting false when no event is pending or the guard tripped. It is
// the degenerate-window progress primitive of Run: unlike the fallback
// loop, cross-LP sends made during the step buffer to the barrier.
func (s *LPSet) stepEarliest() bool {
	best, bestT := -1, math.Inf(1)
	for i, e := range s.envs {
		if t, ok := e.NextT(); ok && t < bestT {
			best, bestT = i, t
		}
	}
	if best < 0 {
		return false
	}
	return s.envs[best].stepOne()
}

// maxNow returns the latest LP clock — the time of the last event
// executed anywhere (0 when nothing ran).
func (s *LPSet) maxNow() float64 {
	end := 0.0
	for _, e := range s.envs {
		if e.now > end {
			end = e.now
		}
	}
	return end
}

// deliver flushes the window's buffered cross-LP messages into their
// destination queues in canonical order — destinations ascending, then
// sources ascending, then send order — so the seq numbers tied
// messages receive are a pure function of the partition, never of
// worker scheduling.
func (s *LPSet) deliver() {
	if len(s.links) == 0 {
		return
	}
	for dst := range s.envs {
		for src := range s.outbox {
			for k := range s.outbox[src] {
				m := &s.outbox[src][k]
				if m.dst != dst {
					continue
				}
				s.envs[dst].Schedule(m.at, m.fn)
			}
		}
	}
	for i := range s.outbox {
		s.outbox[i] = s.outbox[i][:0]
	}
}

// each runs f(i) for every LP index: inline when workers <= 1,
// otherwise on a bounded worker pool with a barrier join. A panic in
// any LP is re-raised on the calling goroutine after the join, so the
// sweep guardrails' per-cell panic isolation keeps working under
// parallel execution.
func (s *LPSet) each(workers int, f func(i int)) {
	n := len(s.envs)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
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
			for i := range idx {
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
