package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Op is a reduction operator for AllReduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Max
	Min
)

func (op Op) apply(a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	}
	panic("mpi: unknown op")
}

// String returns the operator name.
func (op Op) String() string {
	switch op {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Max:
		return "max"
	case Min:
		return "min"
	}
	return "unknown"
}

// collState holds the rendezvous structures for collective operations:
// a two-phase cyclic barrier plus a shared contribution slot array. One
// collective may be in flight at a time per world, matching MPI's
// requirement that all ranks call collectives in the same order. The
// draining flag is load-bearing: a fast rank finishing collective k must
// not deposit its contribution for collective k+1 until every rank has
// picked up collective k's result, or slots and generations desynchronize.
type collState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int   // ranks deposited in the current collective
	exited   int   // ranks that picked up the current result
	gen      int   // barrier generation
	draining bool  // result published, waiting for all ranks to exit
	slots    []any // per-rank contribution for the current collective
	out      any   // combined result, valid while draining
	dead     bool
	// Clock-bridge state (World.SetClockBridge): ranks parked waiting
	// for slower ranks leave the emulation clock's barrier; the rank
	// whose broadcast releases them rejoins them first, under the
	// mutex, so virtual time cannot slip into the wakeup window.
	join         func()
	leave        func()
	genWaiters   int // ranks parked waiting for the current combine
	entryWaiters int // ranks parked waiting for the previous drain
}

// leaveOne parks the calling rank off the clock barrier (bridge only).
func (c *collState) leaveOne(ctr *int) {
	if c.leave != nil {
		c.leave()
		*ctr++
	}
}

// joinAll rejoins every rank parked on ctr; call before the broadcast
// that wakes them.
func (c *collState) joinAll(ctr *int) {
	if c.join != nil {
		for i := 0; i < *ctr; i++ {
			c.join()
		}
	}
	*ctr = 0
}

func newCollState(n int) *collState {
	c := &collState{n: n, slots: make([]any, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collState) kill() {
	c.mu.Lock()
	c.dead = true
	// Rejoin every bridge-parked rank before waking it to die (see
	// mailbox.kill): the panic unwind retires each rank's barrier slot
	// exactly once.
	c.joinAll(&c.genWaiters)
	c.joinAll(&c.entryWaiters)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// rendezvous deposits this rank's contribution, blocks until all n ranks
// have arrived, computes combine (on the last arriver) exactly once, and
// returns the combined result to every rank.
func (c *collState) rendezvous(rank int, contribution any, combine func(slots []any) any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Entry phase: the previous collective must be fully drained before
	// this rank may deposit for the next one. Parked entrants leave the
	// clock barrier once and are rejoined by the reopening rank; the
	// combine broadcast may wake them spuriously, in which case they
	// keep waiting without touching the barrier again.
	if c.draining {
		c.leaveOne(&c.entryWaiters)
		for c.draining {
			if c.dead {
				panic("mpi: world killed during collective")
			}
			c.cond.Wait()
		}
	}
	if c.dead {
		panic("mpi: world killed during collective")
	}
	gen := c.gen
	c.slots[rank] = contribution
	c.arrived++
	if c.arrived == c.n {
		c.out = combine(c.slots)
		// Rejoin the n-1 parked ranks before releasing them: they wake
		// already inside the clock barrier.
		c.joinAll(&c.genWaiters)
		c.gen++
		c.draining = true
		c.cond.Broadcast()
	} else {
		c.leaveOne(&c.genWaiters)
		for gen == c.gen {
			if c.dead {
				panic("mpi: world killed during collective")
			}
			c.cond.Wait()
		}
	}
	out := c.out
	// Exit phase: the last rank out resets state and reopens entry.
	c.exited++
	if c.exited == c.n {
		c.arrived, c.exited = 0, 0
		for i := range c.slots {
			c.slots[i] = nil
		}
		c.out = nil
		c.draining = false
		c.joinAll(&c.entryWaiters)
		c.cond.Broadcast()
	}
	return out
}

// rendezvous is the Comm-level entry into the shared collective state.
func (c *Comm) rendezvous(contribution any, combine func(slots []any) any) any {
	return c.world.coll.rendezvous(c.rank, contribution, combine)
}

// Barrier blocks until every rank in the world has entered it.
func (c *Comm) Barrier() {
	c.rendezvous(nil, func([]any) any { return nil })
}

// validateEqualLengths panics when any two ranks' contributions to the
// current collective disagree in length, naming both ranks and lengths.
// It runs inside the combine — on the last-arriving rank, before any
// result is published — so a mismatch is a loud, attributable failure
// instead of a silently truncated broadcast or an out-of-bounds panic
// deep in the element loop.
func validateEqualLengths(coll string, slots []any) {
	n0 := len(slots[0].([]float64))
	for r := 1; r < len(slots); r++ {
		if nr := len(slots[r].([]float64)); nr != n0 {
			panic(fmt.Sprintf("mpi: %s length mismatch: rank 0 has %d elements, rank %d has %d",
				coll, n0, r, nr))
		}
	}
}

// Bcast broadcasts root's buffer to all ranks. Every rank passes its own
// buf; non-root buffers are overwritten in place (lengths must match —
// a mismatch panics naming both ranks).
func (c *Comm) Bcast(root int, buf []float64) {
	contribution := make([]float64, len(buf))
	copy(contribution, buf)
	out := c.rendezvous(contribution, func(slots []any) any {
		validateEqualLengths("bcast", slots)
		return slots[root]
	})
	copy(buf, out.([]float64))
}

// AllReduce reduces buf element-wise across all ranks with op and writes
// the result back into buf on every rank. Lengths must match across
// ranks; a mismatch panics naming both ranks.
func (c *Comm) AllReduce(op Op, buf []float64) {
	contribution := make([]float64, len(buf))
	copy(contribution, buf)
	out := c.rendezvous(contribution, func(slots []any) any {
		validateEqualLengths("allreduce", slots)
		acc := make([]float64, len(slots[0].([]float64)))
		copy(acc, slots[0].([]float64))
		for r := 1; r < len(slots); r++ {
			xs := slots[r].([]float64)
			for i := range acc {
				acc[i] = op.apply(acc[i], xs[i])
			}
		}
		return acc
	})
	copy(buf, out.([]float64))
}

// AllGather concatenates every rank's buf in rank order and returns the
// full vector on every rank.
func (c *Comm) AllGather(buf []float64) []float64 {
	contribution := make([]float64, len(buf))
	copy(contribution, buf)
	out := c.rendezvous(contribution, func(slots []any) any {
		var all []float64
		for _, s := range slots {
			all = append(all, s.([]float64)...)
		}
		return all
	})
	src := out.([]float64)
	res := make([]float64, len(src))
	copy(res, src)
	return res
}

// Gather concatenates every rank's buf in rank order on root; other ranks
// get nil.
func (c *Comm) Gather(root int, buf []float64) []float64 {
	contribution := make([]float64, len(buf))
	copy(contribution, buf)
	out := c.rendezvous(contribution, func(slots []any) any {
		var all []float64
		for _, s := range slots {
			all = append(all, s.([]float64)...)
		}
		return all
	})
	if c.rank == root {
		src := out.([]float64)
		res := make([]float64, len(src))
		copy(res, src)
		return res
	}
	return nil
}

// Scatter splits root's data into world-size equal chunks and returns this
// rank's chunk on every rank. len(data) must be a multiple of Size on
// root; other ranks may pass nil. Root's length is validated *before*
// the rendezvous — a bad length panics only the offending caller, never
// the whole world past the barrier — and root's data is copied before
// deposit, so the caller's slice is never aliased in the shared
// rendezvous state (a caller mutating data while slower ranks are still
// in the collective cannot corrupt their chunks).
func (c *Comm) Scatter(root int, data []float64) []float64 {
	n := c.world.size
	var contribution []float64
	if c.rank == root {
		if len(data)%n != 0 {
			panic(fmt.Sprintf("mpi: scatter root %d data length %d not divisible by world size %d",
				root, len(data), n))
		}
		contribution = make([]float64, len(data))
		copy(contribution, data)
	}
	out := c.rendezvous(contribution, func(slots []any) any {
		// The deposit is already a private copy; publish it directly.
		return slots[root]
	})
	full := out.([]float64)
	chunk := len(full) / n
	res := make([]float64, chunk)
	copy(res, full[c.rank*chunk:(c.rank+1)*chunk])
	return res
}

// encodeFloat64s serializes a float64 slice little-endian.
func encodeFloat64s(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

// decodeFloat64s is the inverse of encodeFloat64s.
func decodeFloat64s(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}
