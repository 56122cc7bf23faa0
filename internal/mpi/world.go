// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics: a fixed-size world of ranks, point-to-point send/receive with
// source and tag matching, and the collective operations the paper's
// Kernels module exposes (AllReduce, AllGather, Bcast, Barrier, ...).
//
// It replaces mpi4py/mpirun from the original Python framework: in real
// mode every workflow component rank is a goroutine inside one process,
// and this package is the fabric between them. Sends are eager (buffered
// at the receiver), so common exchange patterns cannot deadlock.
package mpi

import (
	"fmt"
	"sync"
)

// Wildcard values for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is a communicator universe of fixed size. Create one with
// NewWorld, then either call Run to spawn one goroutine per rank or use
// Comm handles directly from goroutines you manage yourself.
type World struct {
	size   int
	boxes  []*mailbox
	coll   *collState
	killed bool
	mu     sync.Mutex
}

// NewWorld returns a world with the given number of ranks (>= 1).
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpi: world size must be >= 1")
	}
	w := &World{size: size}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.coll = newCollState(size)
	return w
}

// SetClockBridge connects this world's blocking waits to an emulation
// clock's participant barrier (clock.Virtual). A rank that parks inside
// MPI — a Recv with no matching message, a collective waiting for
// slower ranks — calls leave, releasing the barrier so ranks sleeping
// on the clock can progress toward the matching send. The *waker* (the
// sender, the last rank into a collective) calls join once per parked
// waiter it is about to release, while still holding the monitor, so a
// woken rank re-enters the barrier before the waker can possibly reach
// its next sleep: virtual time can never slip past a rank in the wakeup
// window, which keeps multi-rank components deterministic.
//
// Call before any communication. Both hooks must be safe for concurrent
// use; pass clock.Clock.Join/Leave. Nil restores the default (waits run
// inline, untracked).
func (w *World) SetClockBridge(join, leave func()) {
	for _, b := range w.boxes {
		b.join, b.leave = join, leave
	}
	w.coll.join, w.coll.leave = join, leave
}

// Comm returns the communicator handle for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// Run spawns one goroutine per rank executing body and blocks until every
// rank returns. If any rank panics, Run re-panics with the first failure
// after the others finish or stall; ranks are expected to be well matched.
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
					w.kill()
				}
			}()
			body(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// kill unblocks all pending receives so a panicking run can unwind.
// Ranks parked under a clock bridge are rejoined before they wake (see
// mailbox.kill), so each dying rank's teardown retires exactly the
// barrier slot it holds.
func (w *World) kill() {
	w.mu.Lock()
	w.killed = true
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.kill()
	}
	w.coll.kill()
}

// Comm is a per-rank communicator handle. Handles are cheap and safe to
// copy; all methods may block per MPI semantics.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }
