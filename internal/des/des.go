// Package des implements a deterministic, callback-driven discrete-event
// simulation engine. It is the substrate for the simulated-scale
// experiments: virtual Aurora nodes, interconnect links, Lustre servers
// and workflow components all run as state machines against a virtual
// clock, so 512-node experiments finish in milliseconds of wall time and
// are bit-reproducible across runs.
//
// There is one execution style: events are plain functions (At/After,
// Hold, a Resource.Request grant) that run flat on the goroutine that
// called Run; nothing is handed between goroutines and nothing is
// allocated per event. Rescheduling a cached closure costs one payload
// write into a reused slab slot and, at most, one heap sift. A workflow
// component is a struct that caches its closures and re-arms them.
//
// Determinism: simultaneous events fire in schedule order (a
// monotonically increasing sequence number breaks time ties), so a run
// is a function of the schedule calls it issues and nothing else.
//
// # The event queue: runs of simultaneous events
//
// The simulated workloads are bulk-synchronous: thousands of identical
// ranks wake, stage and poll at the same virtual instants. Half of the
// events an `experiments -exp all` pass schedules (fig3 69 %, scale-out
// 50 %, fig6 47 %, fig4 44 %, resilience 36 %, campaign 0 %; fig5
// schedules none) carry a timestamp bit-equal to an event already
// pending. The queue
// therefore orders runs of simultaneous events, not single events:
//
//   - A run is a FIFO of events with one bit-identical time, linked
//     through the payload slab. A push whose time matches the run
//     cached for that time (a 64-slot direct-mapped table keyed on the
//     time's bit pattern) is appended in O(1) and never touches the
//     heap. Draining a run of length L costs one sift per L events.
//   - The 4-ary min-heap holds one pointer-free 24-byte key {t, seq of
//     the run's first event, slab index of the run's head} per run, so
//     sifting moves no pointers and needs no GC write barriers. The
//     {fn, cb, val, kind, next} payloads are written once into a
//     free-listed slab and never move: the slab grows by fixed 32-slot
//     chunks, so an Env allocates its deepest moment once and copies
//     nothing.
//   - When the root run empties, the root is left vacant while the
//     handler runs. The handler's first push that starts a new run is
//     placed at the root with one sift-down (pop and push fused);
//     otherwise the hole is filled when the handler returns, or sooner
//     if the handler reads NextT.
//
// Why the pop order is exactly (t, seq). seq is strictly increasing, so
// appending keeps each run in seq order. The table slot is chosen from
// the time's bit pattern with the sign bit dropped, so numerically equal
// times — including +0.0 and -0.0, the only equal times with different
// bits — always compete for the same slot, and a slot holds one run. A
// run enters the table only when it is created and leaves it for good
// when a later run takes its slot or when it drains. Hence a run is only
// ever appended to while it is the latest-created live run for its
// numeric time, every event of an older same-time run has a smaller seq
// than the first event of a newer one, and ordering runs by (t, seq of
// first event) and events within a run by FIFO is the (t, seq) order. A
// partially drained root run stays the minimum — anything pushed later
// has a larger seq and no earlier time — so its key is never re-sifted.
// Any table size or hash is exact; they only decide how many ties are
// caught. (A one-entry "last run" table was measured: it catches 0.1 %
// of gradsync's ties against 48 % with 64 slots, because ranks alternate
// between a few distinct wake times.)
//
// # Delay lanes: runs created with one delay
//
// A deep queue is deep with runs that were all created "d from now" for
// a handful of delays d: a service time, a write period, a poll period.
// (Fig 3's 512-node file-system cell averages some 1 900 runs in the
// heap at a push; 99.7 % of the runs it creates carry one of at most 64
// delays.) now never decreases, so the runs of one delay arrive already
// in time order, and a FIFO per delay is a sorted queue that needs only
// its head in the heap — Brown's calendar queue (CACM 1988) narrowed to
// a few distinct delays:
//
//   - Once the queue is deep (below), a run that a push creates is filed
//     under a lane: one of 64 direct-mapped slots keyed on the bit
//     pattern of t − now (hashed as the run table hashes times). The lane's
//     earliest run is its one heap key; the rest wait in a free-listed
//     pool of {key, next} entries, and leave a vacant root for a later
//     push or the handler's return to fill. A run whose lane slot is
//     free claims it and enters the heap as the lane's head; one whose
//     slot another delay holds enters the heap as a plain run.
//   - When a lane's head run drains at the root, the lane's next run is
//     sifted into the root in its place; a lane left empty is freed for
//     any delay to claim. Only a drained run of no lane, or of an empty
//     one, leaves the root vacant as above.
//   - Each heap key names its lane in the low laneBits bits of seq
//     (seq<<7 | lane+1, with tag 0 for a plain run). seq is unique, so the tag never
//     decides an order, and the key keeps its three-field 24-byte shape:
//     a prototype that marked lane heads with a fourth int32 field, with
//     no lane logic at all, slowed a three-backend fig5 cell from 64–68
//     to 80–86 µs, and with lanes lost 18 % of serve-cold's qps (measured
//     while fig5 cells still ran on an Env).
//   - The lane table is allocated the first time the heap grows to
//     laneDepth (64) runs, and the lane code sits out of line behind one
//     nil check. A queue that never gets that deep pays that check per
//     new run and keeps NewEnv at one allocation: p1-nl-512 and
//     fig6-redis-128 average 2.9 and 2.8 runs at a push. The choice was
//     measured on serve-cold's fig5 cells, which held a couple of runs
//     and lost qps to an eager table; fig5 now adds its phases up in
//     closed form and builds no Env. This is a selection from the
//     queue's observed depth, not a knob, and Shutdown returns an Env
//     to it.
//
// Why lanes keep the order exactly (t, seq). A run joins a live lane only
// if its delay bits match the lane's and its time is not earlier than the
// lane's last run. seq strictly increases, so each lane is in (t, seq)
// order by that comparison alone, its head is its minimum, and the heap
// minimum — the minimum over plain runs and lane heads — is the global
// minimum. The bits only decide which runs share a lane; the comparison
// is what is exact. It is needed: under round-half-to-even two distinct
// times can give bit-equal differences (at now = 2^-52, 2+3·2^-51 and
// 2+2·2^-51 both give 2+2·2^-51), and the second, earlier run then goes
// to the heap. As with the run table, any lane count or hash is exact.
// Appending an event to a run that waits in a lane works as before: the
// run table holds the run's tail, wherever its key is.
package des

import (
	"fmt"
	"math"
)

// Event kinds. The slab stores value-type records rather than
// heap-allocated closures; the kind selects which payload field fires.
const (
	evFunc uint8 = iota // run fn()
	evCall              // run cb(val)
)

// event is one queued occurrence's payload: a 40-byte slab record,
// written once when scheduled and cleared when fired. next links the
// record into its run's FIFO or, once freed, into the slab free list;
// 0 ends either chain (slab slot 0 is a reserved sentinel).
type event struct {
	fn   func()
	cb   func(any)
	val  any
	next int32
	kind uint8
}

// runKey is one heap entry: a run of events that share one time, ordered
// by (t, seq of the run's first event). head is the slab index of the
// run's earliest unfired event. Pointer-free by design. seq holds the
// first event's sequence number shifted up by laneBits, with the run's
// lane tag (lane index + 1, or 0 for none) in the bits below: sequence
// numbers are unique, so the tag never decides an order.
type runKey struct {
	t    float64
	seq  int64
	head int32
}

// lane returns the index of the delay lane the run belongs to, or -1.
func (k *runKey) lane() int { return int(k.seq&laneMask) - 1 }

// before reports heap ordering: earlier time first, creation order
// breaking ties.
func (a *runKey) before(b *runKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// openRun is one slot of the run table: the run that currently accepts
// appends for the time with bit pattern bits. tail is the slab index of
// its last event; 0 marks the slot empty.
type openRun struct {
	bits uint64
	tail int32
}

// slabChunk is the number of payload slots the slab grows by. The slab
// is a list of fixed chunks, not one slice: growing it copies nothing,
// slots never move, and an Env allocates the slots of its deepest
// moment once. (As one slice grown by append — 1.25x steps past 256
// elements — a 512-node cell's slab was re-allocated and copied some
// fifteen times, five times its final size in all: a quarter of every
// byte a sweep allocated, all of it large pointerful objects for the
// collector to zero, barrier-copy and sweep.) 32 slots, 1.25 KB, are what
// one node's ranks keep pending, so a small Env — one LP of an LPSet —
// stays at one chunk.
const slabChunk = 32

// runSlots is the size of the direct-mapped run table. A constant, not
// a knob: see the package doc for what smaller tables miss.
const runSlots = 64

// runSlot maps a time to its run-table slot: Fibonacci hashing of the
// bit pattern with the sign bit dropped, so that +0.0 and -0.0 share a
// slot (the exactness argument in the package doc depends on it). A
// delay maps to its lane slot the same way.
func runSlot(t float64) int {
	return int((math.Float64bits(t) << 1) * 0x9E3779B97F4A7C15 >> 58)
}

// Delay lanes (see the package doc). Constants, not knobs: laneSlots
// lanes share the run table's hash, laneDepth is the heap depth at which
// an Env allocates its lane table, and laneBits is the width of the lane
// tag under a key's seq (it must hold laneSlots + 1 values; the 56 bits
// left for seq outlast any run: 2^56 pushes at 10 ns each take 22 years).
const (
	laneSlots = runSlots
	laneDepth = 64
	laneBits  = 7
	laneMask  = 1<<laneBits - 1
)

// lane is one slot of the lane table: the runs created with the delay of
// bit pattern bits, in (t, seq) order. While live, exactly one of them —
// the earliest — is in the heap; the rest wait in the pool FIFO
// head..tail (pool indices, 0 = none). last is the time of the lane's
// latest run, the bound a joining run must not undercut.
type lane struct {
	bits       uint64
	last       float64
	head, tail int32
	live       bool
}

// laneRun is a pool entry: a run waiting in a lane, and the next one.
type laneRun struct {
	key  runKey
	next int32
}

// laneTable is what an Env allocates once its heap gets deep.
type laneTable struct {
	lanes [laneSlots]lane
	pool  []laneRun // entry 0 reserved; free entries chained through next
	free  int32
}

// Env is a simulation environment: a virtual clock plus a pending-event
// queue. The zero value is not usable; construct with NewEnv.
type Env struct {
	now float64
	seq int64 // sequence number of the latest push, in steps of 1<<laneBits

	// The pending queue (see the package doc): heap orders the live
	// runs, slab holds every pending payload, open finds the run a
	// same-time push may join.
	heap    []runKey            // 4-ary min-heap on (t, seq)
	slab    []*[slabChunk]event // slot 0 reserved; free slots chained through next
	used    int32               // slab slots handed out so far, the sentinel included
	free    int32               // head of the slab free list, 0 when empty
	pending int                 // queued events (not runs)
	vacant  bool                // heap[0] is a hole: its run drained in the running handler
	open    [runSlots]openRun
	lanes   *laneTable // nil until the heap first holds laneDepth runs

	stopped bool

	// Run guardrails (see guard.go). guarded mirrors guard.enabled() so
	// the healthy hot path pays one predictable branch per event. shared
	// is the joint event budget of an LPSet run (nil outside one).
	guard    Guard
	shared   *SharedGuard
	guarded  bool
	executed int64
	guardErr error
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// slot returns slab slot i.
func (e *Env) slot(i int32) *event {
	u := uint32(i)
	return &e.slab[u/slabChunk][u%slabChunk]
}

// push enqueues one event at time t — it either joins the open run for
// t or starts a new run in the heap — and returns its zeroed slab slot
// for the caller to fill in. (Filling the slot field by field keeps the
// GC write barrier to the inlined per-pointer form; assigning a whole
// event record goes through the much slower bulk barrier whenever a GC
// cycle is running.)
func (e *Env) push(t float64) *event {
	if !(t >= e.now) { // also rejects NaN, which no comparison could order
		panic(fmt.Sprintf("des: schedule at t=%v before now=%v", t, e.now))
	}
	e.seq += 1 << laneBits // the bits below hold a key's lane tag
	e.pending++
	i := e.free
	var s *event
	if i != 0 {
		s = e.slot(i)
		e.free = s.next
		s.next = 0
	} else {
		if int(e.used) == len(e.slab)*slabChunk {
			if len(e.slab) == math.MaxInt32/slabChunk {
				panic("des: more than 2^31 pending events")
			}
			e.slab = append(e.slab, new([slabChunk]event))
			if e.used == 0 {
				e.used = 1 // the sentinel slot
			}
		}
		i = e.used
		e.used++
		s = e.slot(i)
	}
	bits := math.Float64bits(t)
	o := &e.open[runSlot(t)]
	if o.tail != 0 && o.bits == bits {
		e.slot(o.tail).next = i
		o.tail = i
		return s
	}
	*o = openRun{bits: bits, tail: i}
	k := runKey{t: t, seq: e.seq, head: i}
	if e.lanes != nil {
		var queued bool
		if k.seq, queued = e.joinLane(k); queued {
			return s
		}
	}
	if e.vacant {
		e.vacant = false
		e.siftDown(k)
		return s
	}
	// Hole-based sift-up: the new key is written exactly once.
	h := append(e.heap, k)
	if len(h) == laneDepth && e.lanes == nil {
		e.lanes = &laneTable{pool: make([]laneRun, 1, laneDepth)}
	}
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 4
		if !k.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = k
	e.heap = h
	return s
}

// joinLane files the new run k under the lane of its delay t − now and
// returns k's seq with the lane tag it now carries, if any. queued
// reports that the run waits in the lane's pool, behind the lane's run in
// the heap; otherwise k goes to the heap, heading its lane if tagged. A run joins a live lane only if its delay bits match
// and it is not earlier than the lane's last run, so each lane stays in
// (t, seq) order by comparison alone (two times can round to one
// difference).
func (e *Env) joinLane(k runKey) (seq int64, queued bool) {
	lt := e.lanes
	d := k.t - e.now
	id := runSlot(d)
	l := &lt.lanes[id]
	bits := math.Float64bits(d)
	if !l.live {
		*l = lane{bits: bits, last: k.t, live: true}
		return k.seq | int64(id+1), false
	}
	if l.bits != bits || k.t < l.last {
		return k.seq, false // the slot holds another delay, or the lane is ahead of k
	}
	l.last = k.t
	k.seq |= int64(id + 1)
	j := lt.free
	if j != 0 {
		lt.free = lt.pool[j].next
		lt.pool[j] = laneRun{key: k}
	} else {
		j = int32(len(lt.pool))
		lt.pool = append(lt.pool, laneRun{key: k})
	}
	if l.tail != 0 {
		lt.pool[l.tail].next = j
	} else {
		l.head = j
	}
	l.tail = j
	return k.seq, true
}

// promote replaces the drained root run of lane id with the lane's next
// run, reporting false (and retiring the lane) when none waits.
func (e *Env) promote(id int) bool {
	lt := e.lanes
	l := &lt.lanes[id]
	j := l.head
	if j == 0 {
		l.live = false
		return false
	}
	r := &lt.pool[j]
	l.head = r.next
	if l.head == 0 {
		l.tail = 0
	}
	k := r.key
	r.next = lt.free
	lt.free = j
	e.siftDown(k)
	return true
}

// siftDown places k in the hole at the heap's root and restores the
// heap invariant.
func (e *Env) siftDown(k runKey) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[min]) {
				min = j
			}
		}
		if !h[min].before(&k) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = k
}

// settle fills a vacant root with the heap's last key. The run loop
// calls it when a handler returns without having started a new run;
// readers of the root call it before looking.
func (e *Env) settle() {
	if !e.vacant {
		return
	}
	e.vacant = false
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// Schedule runs fn at absolute virtual time t (>= Now). It is the
// low-level primitive beneath At, After and Resource grants.
func (e *Env) Schedule(t float64, fn func()) {
	s := e.push(t)
	s.kind, s.fn = evFunc, fn
}

// At is Schedule under its callback-fast-path name: run fn at absolute
// virtual time t, flat on the scheduler goroutine. Reuse one closure
// across reschedules (store it in your state struct) and the only
// per-occurrence cost is a value push into the event queue.
func (e *Env) At(t float64, fn func()) { e.Schedule(t, fn) }

// After runs fn d seconds from now.
func (e *Env) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

// call schedules cb(v) at time t: the value-carrying callback Hold arms
// itself with. Allocation-free like all record pushes.
func (e *Env) call(t float64, cb func(any), v any) {
	s := e.push(t)
	s.kind, s.cb, s.val = evCall, cb, v
}

// Run executes events until the queue is empty. It returns the final
// virtual time.
func (e *Env) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with time <= until. Events scheduled beyond the
// horizon remain queued. It returns the virtual time of the last executed
// event (or the starting time if nothing ran).
func (e *Env) RunUntil(until float64) float64 {
	e.stopped = false
	e.settle()
	for e.pending > 0 && !e.stopped {
		if e.heap[0].t > until {
			break
		}
		if !e.execNext() {
			break
		}
	}
	return e.now
}

// NextT peeks at the earliest pending event time; ok is false when the
// queue is empty.
func (e *Env) NextT() (t float64, ok bool) {
	if e.pending == 0 {
		return 0, false
	}
	e.settle()
	return e.heap[0].t, true
}

// execNext fires the earliest queued event — the head of the root run —
// honoring the guard. It reports false when the guard tripped (the
// event stays queued and the guard error is recorded for Err). The
// root must not be vacant on entry: execNext settles its own hole when
// the handler returns, and the run loops settle once on entry in case
// they were called from inside a handler or after one panicked.
func (e *Env) execNext() bool {
	root := &e.heap[0]
	if e.guarded && e.checkGuard() {
		return false
	}
	e.executed++
	e.now = root.t
	i := root.head
	s := e.slot(i)
	ev := *s
	s.fn, s.cb, s.val = nil, nil, nil // release payload references
	s.next = e.free
	e.free = i
	e.pending--
	if ev.next != 0 {
		root.head = ev.next
	} else {
		// The run is drained: close it to appends, and sift its lane's
		// next run into the root or leave the root vacant for the
		// handler's first new run to take.
		if o := &e.open[runSlot(root.t)]; o.tail == i {
			o.tail = 0
		}
		if id := root.lane(); id < 0 || !e.promote(id) {
			e.vacant = true
		}
	}
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evCall:
		ev.cb(ev.val)
	}
	e.settle()
	return true
}

// Stop halts the run loop after the current event completes. Queued events
// are preserved; Run/RunUntil may be called again to continue.
func (e *Env) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Env) Pending() int { return e.pending }

// Shutdown drops all queued events and the storage behind them. Call it
// when abandoning an environment whose horizon stopped before its queue
// drained (RunUntil), so long-lived benchmark runs do not keep the
// closures of unfired events reachable.
func (e *Env) Shutdown() {
	e.heap, e.slab, e.used, e.free, e.pending, e.vacant = nil, nil, 0, 0, 0, false
	e.open = [runSlots]openRun{}
	e.lanes = nil
}
