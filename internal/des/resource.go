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
	// waitQ[qHead:] is the FIFO of queued claimants. Popping advances
	// qHead instead of reslicing, and enqueue compacts the consumed
	// prefix back to the front once the backing array fills, so a
	// steady-state contention workload (the multi-tenant shared queues)
	// enqueues with zero allocations after warm-up.
	waitQ []rwaiter
	qHead int
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

// rwaiter is one queued claimant: its grant callback, stamped with its
// enqueue time for queueing-delay accounting. g is non-nil for
// cancellable requests (RequestCancellable).
type rwaiter struct {
	fn   func()
	enqT float64
	g    *Grant
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("des: resource capacity must be >= 1")
	}
	return &Resource{env: env, cap: capacity}
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

// enqueue appends a claimant, reusing the consumed front of the backing
// array before growing it.
func (r *Resource) enqueue(w rwaiter) {
	if r.qHead > 0 && len(r.waitQ) == cap(r.waitQ) {
		n := copy(r.waitQ, r.waitQ[r.qHead:])
		tail := r.waitQ[n:]
		for i := range tail {
			tail[i] = rwaiter{} // release claimant references
		}
		r.waitQ = r.waitQ[:n]
		r.qHead = 0
	}
	r.waitQ = append(r.waitQ, w)
}

// dequeue removes and returns the longest-waiting claimant.
func (r *Resource) dequeue() rwaiter {
	next := r.waitQ[r.qHead]
	r.waitQ[r.qHead] = rwaiter{}
	r.qHead++
	if r.qHead == len(r.waitQ) {
		r.waitQ = r.waitQ[:0]
		r.qHead = 0
	}
	return next
}

// Request invokes fn holding a slot: synchronously if one is free,
// otherwise as an event at the instant the slot is granted, in FIFO
// order. The holder calls Release when done — a timed hold is
// Request(grant) with grant doing After(d, release). Reuse one fn
// closure across calls to keep the hot path allocation-free.
func (r *Resource) Request(fn func()) {
	if r.take() {
		fn()
		return
	}
	r.enqueue(rwaiter{fn: fn, enqT: r.env.now})
}

// Release frees one slot, waking the longest-waiting claimant if any.
// The slot transfers directly to the woken claimant, preserving FIFO
// fairness (no barging). Cancelled claimants (Grant.Cancel) are dropped
// silently on the way: they count neither as grants nor toward the
// queueing-delay totals, and a release that finds only cancelled
// claimants frees the slot as if the queue were empty.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: release of idle resource")
	}
	for len(r.waitQ) > r.qHead {
		next := r.dequeue()
		if next.g != nil && next.g.cancelled {
			continue // claimant withdrew while queued
		}
		r.waitTotal += r.env.now - next.enqT
		r.grants++
		if next.g != nil {
			next.g.granted = true
		}
		// inUse stays the same: the slot moves to next.
		r.env.Schedule(r.env.now, next.fn)
		return
	}
	r.inUse--
}

// Grant is the cancellation handle of RequestCancellable: the claimant
// side of an interruptible queue entry (a checkpoint write whose node
// crashes while queued on the shared service slots). Cancel withdraws
// the claimant while it is still queued; once the slot is granted the
// handle is inert and the holder must Release as usual.
type Grant struct {
	granted   bool
	cancelled bool
}

// Granted reports whether the slot was handed to the claimant (its fn
// ran or is scheduled to run).
func (g *Grant) Granted() bool { return g.granted }

// Cancel withdraws a still-queued claimant, reporting whether it
// actually withdrew (false once granted or already cancelled). A
// withdrawn claimant's fn never runs and its wait never counts in the
// queueing-delay accounting.
func (g *Grant) Cancel() bool {
	if g.granted || g.cancelled {
		return false
	}
	g.cancelled = true
	return true
}

// RequestCancellable is Request with a cancellation handle: fn runs
// holding a slot — synchronously if one is free, otherwise when granted
// in FIFO order — unless the returned Grant is cancelled while still
// queued. Event order is identical to Request for uncancelled grants.
func (r *Resource) RequestCancellable(fn func()) *Grant {
	g := &Grant{}
	if r.take() {
		g.granted = true
		fn()
		return g
	}
	r.enqueue(rwaiter{fn: fn, enqT: r.env.now, g: g})
	return g
}

// InUse reports current utilization; Cap the capacity; Waiting the queue
// length (including claimants cancelled but not yet drained by a
// Release); Peak the maximum utilization observed.
func (r *Resource) InUse() int   { return r.inUse }
func (r *Resource) Cap() int     { return r.cap }
func (r *Resource) Waiting() int { return len(r.waitQ) - r.qHead }
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
