package des

// Resource is a counted resource with a FIFO wait queue. It models
// serialization points in the cluster: a NIC that admits a bounded
// number of concurrent flows, a Lustre metadata server with a single
// service slot, an OST with k parallel streams. Claimants contend in
// strict FIFO order.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	// waitQ is a ring holding the FIFO of queued claimants: qLen of
	// them from qHead on, wrapping at len(waitQ), a power of two. A full
	// ring doubles, so a steady-state contention workload (the
	// multi-tenant shared queues) enqueues with zero allocations after
	// warm-up, and no enqueue moves the live queue.
	waitQ []rwaiter
	qHead int
	qLen  int
	// peak tracks the maximum simultaneous utilization, handy for
	// asserting contention in tests.
	peak int
	// Queueing-delay accounting: total virtual seconds claimants spent
	// queued and the number of grants (immediate grants count with zero
	// wait). Pure bookkeeping — no events are scheduled for it — so
	// enabling multi-tenant contention reports cannot perturb event
	// order.
	waitTotal float64
	grants    int64
}

// rwaiter is one queued claimant: the (handler, row) its grant fires,
// stamped with its enqueue time for queueing-delay accounting. A
// withdrawn claimant stays in the ring as a tombstone, h nil.
type rwaiter struct {
	h    Handler
	row  int32
	enqT float64
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	r := NewResources(env, 1, capacity)
	return &r[0]
}

// NewResources returns n resources of the given capacity (>= 1) in one
// slice: a per-node resource of a large cluster costs one allocation,
// not one per node.
func NewResources(env *Env, n, capacity int) []Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	rs := make([]Resource, n)
	for i := range rs {
		rs[i] = Resource{env: env, cap: capacity}
	}
	return rs
}

// take claims a free slot; returns false when at capacity.
func (r *Resource) take() bool {
	if r.inUse >= r.cap {
		return false
	}
	r.inUse++
	if r.inUse > r.peak {
		r.peak = r.inUse
	}
	r.grants++
	return true
}

// enqueue appends a claimant, doubling the ring when it is full.
func (r *Resource) enqueue(w rwaiter) {
	if r.qLen == len(r.waitQ) {
		q := make([]rwaiter, max(4, 2*len(r.waitQ)))
		n := copy(q, r.waitQ[r.qHead:])
		copy(q[n:], r.waitQ[:r.qHead])
		r.waitQ, r.qHead = q, 0
	}
	r.waitQ[(r.qHead+r.qLen)&(len(r.waitQ)-1)] = w
	r.qLen++
}

// dequeue removes and returns the longest-waiting claimant.
func (r *Resource) dequeue() rwaiter {
	next := r.waitQ[r.qHead]
	r.waitQ[r.qHead] = rwaiter{} // release claimant references
	r.qHead = (r.qHead + 1) & (len(r.waitQ) - 1)
	r.qLen--
	return next
}

// RequestRow fires h.Fire(row) holding a slot: synchronously if one is
// free, otherwise as an event at the instant the slot is granted, in
// FIFO order. The holder calls Release when done — a timed hold is a
// grant that arms AfterRow(d, …) and releases when that fires.
func (r *Resource) RequestRow(h Handler, row int32) {
	if r.take() {
		h.Fire(row)
		return
	}
	r.enqueue(rwaiter{h: h, row: row, enqT: r.env.now})
}

// Request is RequestRow for a func: fn runs holding a slot. Reuse one fn
// closure across calls to keep the hot path allocation-free.
func (r *Resource) Request(fn func()) { r.RequestRow(Func(fn), 0) }

// Release frees one slot, waking the longest-waiting claimant if any.
// The slot transfers directly to the woken claimant, preserving FIFO
// fairness (no barging). Tombstones (Withdraw) are dropped silently on
// the way: they count neither as grants nor toward the queueing-delay
// totals, and a release that finds only tombstones frees the slot as if
// the queue were empty.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: release of idle resource")
	}
	for r.qLen > 0 {
		next := r.dequeue()
		if next.h == nil {
			continue // claimant withdrew while queued
		}
		r.waitTotal += r.env.now - next.enqT
		r.grants++
		// inUse stays the same: the slot moves to next.
		r.env.AtRow(r.env.now, next.h, next.row)
		return
	}
	r.inUse--
}

// Withdraw takes back a still-queued claim of RequestRow(h, row): the
// claimant is left in the ring as a tombstone that never fires and
// never counts in the queueing-delay accounting (a checkpoint write
// whose node crashes while queued on the shared service slots). It
// reports whether a claim was withdrawn: false once the slot has been
// granted (h.Fire(row) ran or is scheduled) and for a claim already
// withdrawn. With several matching claims the oldest goes. h must be
// comparable, such as a pointer: comparing two Func values panics.
func (r *Resource) Withdraw(h Handler, row int32) bool {
	for i := range r.qLen {
		w := &r.waitQ[(r.qHead+i)&(len(r.waitQ)-1)]
		if w.h == h && w.row == row {
			*w = rwaiter{}
			return true
		}
	}
	return false
}

// InUse reports current utilization; Cap the capacity; Waiting the queue
// length (including tombstones of withdrawn claimants not yet drained
// by a Release); Peak the maximum utilization observed.
func (r *Resource) InUse() int   { return r.inUse }
func (r *Resource) Cap() int     { return r.cap }
func (r *Resource) Waiting() int { return r.qLen }
func (r *Resource) Peak() int    { return r.peak }

// Grants reports how many slot grants have occurred (immediate and
// queued alike).
func (r *Resource) Grants() int64 { return r.grants }

// TotalWaitS reports the cumulative virtual seconds claimants spent in
// the wait queue before being granted a slot.
func (r *Resource) TotalWaitS() float64 { return r.waitTotal }

// AvgWaitS reports the mean queueing delay per grant — the observable
// the multi-tenant contention reports use to show a shared backend
// saturating. Zero when nothing has been granted.
func (r *Resource) AvgWaitS() float64 {
	if r.grants == 0 {
		return 0
	}
	return r.waitTotal / float64(r.grants)
}
