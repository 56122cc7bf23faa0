package des

// Ring is a FIFO of T: n items from head on in a power-of-two ring that
// doubles when full, so a queue at steady state pushes and pops with no
// allocation and no push moves the live items. The zero value is an
// empty ring.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		b := make([]T, max(4, 2*len(r.buf)))
		k := copy(b, r.buf[r.head:])
		copy(b[k:], r.buf[:r.head])
		r.buf, r.head = b, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head. It zeroes the slot it empties, so
// the ring keeps no reference to a popped item. The ring must not be
// empty.
func (r *Ring[T]) Pop() T {
	p := &r.buf[r.head]
	v := *p
	var zero T
	*p = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Len is the number of items queued.
func (r *Ring[T]) Len() int { return r.n }

// At points at the i-th item from the head, 0 <= i < Len().
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// QueueStats is one queue's counters: its capacity, the slots in use
// and their peak, the claims waiting, and the grants with the virtual
// seconds their claimants waited in all. A grant counts when the
// claimant's service starts, with zero wait when it needs no queue.
type QueueStats struct {
	Cap, InUse, Peak, Waiting int
	Grants                    int64
	WaitS                     float64
}

// AvgWaitS is the mean queueing delay per grant, zero before the first.
// The multi-tenant contention reports show a shared backend saturating
// through it.
func (s QueueStats) AvgWaitS() float64 {
	if s.Grants == 0 {
		return 0
	}
	return s.WaitS / float64(s.Grants)
}
