package mpi

import (
	"fmt"
	"sync"
)

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is a per-rank queue of unmatched messages with (src, tag)
// matching, including wildcards, in arrival order per MPI's
// non-overtaking rule.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	dead    bool
	// Clock-bridge state (World.SetClockBridge): parked receivers leave
	// the emulation clock's barrier; the sender rejoins every parked
	// waiter under the mutex before broadcasting.
	join    func()
	leave   func()
	waiters int
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.pending = append(b.pending, m)
	// Rejoin every parked receiver before waking it (see
	// World.SetClockBridge); non-matching receivers leave again from
	// take's loop. The momentary over-count only tightens the barrier.
	if b.join != nil {
		for i := 0; i < b.waiters; i++ {
			b.join()
		}
		b.waiters = 0
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take blocks until a message matching (src, tag) is present and removes
// the earliest match.
func (b *mailbox) take(src, tag int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.pending {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				return m
			}
		}
		if b.dead {
			panic("mpi: world killed while receiving")
		}
		// Park: release the clock barrier until a sender rejoins us.
		// Every wake here is a put or a kill, both of which rejoin all
		// parked waiters first — a woken receiver always holds its
		// barrier slot again, whether it matches, re-parks, or dies on
		// the dead check above.
		if b.leave != nil {
			b.leave()
			b.waiters++
		}
		b.cond.Wait()
	}
}

func (b *mailbox) kill() {
	b.mu.Lock()
	b.dead = true
	// Parked receivers released their clock-barrier slot through the
	// bridge; rejoin them before the wake so each one's unwind (panic →
	// rank teardown → Leave) retires exactly the slot it holds, instead
	// of driving the participant count negative.
	if b.join != nil {
		for i := 0; i < b.waiters; i++ {
			b.join()
		}
		b.waiters = 0
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Send delivers data to dst with the given tag. Sends are eager and never
// block. The payload is copied, so the caller may reuse its buffer.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.world.boxes[dst].put(message{src: c.rank, tag: tag, data: buf})
}

// Recv blocks until a message matching (src, tag) arrives — AnySource and
// AnyTag act as wildcards — and returns its payload and actual source.
// Under a clock bridge (World.SetClockBridge) an unmatched Recv releases
// the emulation clock's barrier until the matching send rejoins it.
func (c *Comm) Recv(src, tag int) (data []byte, from int) {
	m := c.world.boxes[c.rank].take(src, tag)
	return m.data, m.src
}

// SendFloat64s sends a float64 slice (little-endian encoding).
func (c *Comm) SendFloat64s(dst, tag int, xs []float64) {
	c.Send(dst, tag, encodeFloat64s(xs))
}

// RecvFloat64s receives a float64 slice from (src, tag).
func (c *Comm) RecvFloat64s(src, tag int) ([]float64, int) {
	data, from := c.Recv(src, tag)
	return decodeFloat64s(data), from
}
