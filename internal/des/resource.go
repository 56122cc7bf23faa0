package des

// Resource is a counted resource with a FIFO wait queue. It models
// serialization points in the cluster: a node bus that admits a bounded
// number of concurrent flows, an OST pool of k parallel streams, the
// service slots of a shared Redis or Dragon deployment. Claimants
// contend in strict FIFO order. Stats reports the same QueueStats as
// the Lustre MDS server (costmodel), counted by the same rule: a grant
// and its wait count when the slot is granted.
type Resource struct {
	env *Env
	// waitQ is the FIFO of queued claimants. A steady-state contention
	// workload (the multi-tenant shared queues) queues with zero
	// allocations once the ring has grown to its working set.
	waitQ Ring[rwaiter]
	// The counters Stats reports: pure bookkeeping, no events are
	// scheduled for them, so they cannot perturb event order.
	cap, inUse, peak int
	grants           int64
	waitTotal        float64
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

// RequestRow fires h.Fire(row) holding a slot: synchronously if one is
// free, otherwise as an event at the instant the slot is granted, in
// FIFO order. The holder calls Release when done — a timed hold is a
// grant that arms AfterRow(d, …) and releases when that fires.
func (r *Resource) RequestRow(h Handler, row int32) {
	if r.inUse >= r.cap {
		r.waitQ.Push(rwaiter{h: h, row: row, enqT: r.env.now})
		return
	}
	r.inUse++
	r.peak = max(r.peak, r.inUse)
	r.grants++
	h.Fire(row)
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
	for r.waitQ.Len() > 0 {
		next := r.waitQ.Pop()
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
	for i := range r.waitQ.Len() {
		w := r.waitQ.At(i)
		if w.h == h && w.row == row {
			*w = rwaiter{}
			return true
		}
	}
	return false
}

// Stats reports the resource's counters. Waiting includes the
// tombstones of withdrawn claimants not yet drained by a Release.
func (r *Resource) Stats() QueueStats {
	return QueueStats{Cap: r.cap, InUse: r.inUse, Peak: r.peak, Waiting: r.waitQ.Len(), Grants: r.grants, WaitS: r.waitTotal}
}
