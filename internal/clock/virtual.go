package clock

import (
	"sync"
	"time"
)

// Virtual is a deterministic simulated clock for the emulation layer.
// Goroutines that pad with Sleep never sleep for real: each Sleep parks
// the caller until virtual time reaches its deadline, and virtual time
// advances only when every joined participant is parked. Exactly one
// sleeper — the one with the earliest deadline, schedule order breaking
// ties — is woken per advance, so participants execute one at a time in
// virtual-deadline order: the same interleaving their pads would
// produce under Wall's Sleep, minus the waiting. The single-wake rule is
// the cross-goroutine barrier that makes concurrent components (a
// simulation and a trainer padding simultaneously) bit-deterministic.
//
// The convention mirrors des.Env's one-runnable-goroutine discipline:
// between two of its sleeps a participant may do arbitrary real work
// (compute kernels, staging I/O against backend servers) — that work
// takes zero virtual time, exactly as DES events do.
//
// Rules of use:
//
//   - Join one participant per padding goroutine before any of them can
//     sleep (the orchestrator may Join on a goroutine's behalf before
//     spawning it — Join counts participants, it does not bind them).
//   - A participant that waits on another participant through anything
//     other than Sleep (an MPI collective, a channel) must Leave around
//     that wait and Join after it, or the barrier deadlocks.
//   - Goroutines outside the barrier (backend servers, stream
//     producers) must not call Sleep on this clock; their real-time
//     blocking is invisible to it, which is fine as long as some
//     participant's work unblocks them promptly.
type Virtual struct {
	mu       sync.Mutex
	base     time.Time
	nowNS    int64
	joined   int
	seq      uint64
	sleepers []vsleeper
}

// vsleeper is one parked Sleep call.
type vsleeper struct {
	at  int64
	seq uint64
	ch  chan struct{}
}

// wakeChans recycles the channels parked sleepers wait on, so a Sleep
// allocates nothing once the pool is warm. Each is buffered: the single
// wake-up a sleeper receives never blocks the waker, and the sleeper
// returns its channel drained.
var wakeChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// NewVirtual returns a virtual clock at a fixed epoch (time.Unix(0,0)
// UTC), so every run starts from the same instant.
func NewVirtual() *Virtual {
	return &Virtual{base: time.Unix(0, 0).UTC()}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.base.Add(time.Duration(v.nowNS))
}

// NowNS returns the current virtual offset in nanoseconds (tests,
// reporting).
func (v *Virtual) NowNS() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nowNS
}

// Join registers one timed participant.
func (v *Virtual) Join() {
	v.mu.Lock()
	v.joined++
	v.mu.Unlock()
}

// Leave deregisters one participant and releases the barrier if the
// rest are all asleep. An unmatched Leave panics: letting the count go
// negative would silently corrupt advanceLocked's barrier condition
// (len(sleepers) >= joined), waking sleepers while participants still
// run and destroying determinism far from the buggy call site.
func (v *Virtual) Leave() {
	v.mu.Lock()
	v.joined--
	if v.joined < 0 {
		v.joined = 0
		v.mu.Unlock()
		panic("clock: Virtual.Leave without a matching Join — participant underflow would corrupt the time barrier")
	}
	v.advanceLocked()
	v.mu.Unlock()
}

// Sleep parks the caller until virtual time reaches now+d.
// Non-positive durations return immediately, as on Wall.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := wakeChans.Get().(chan struct{})
	v.mu.Lock()
	v.pushSleeper(vsleeper{at: v.nowNS + int64(d), seq: v.seq, ch: ch})
	v.seq++
	v.advanceLocked()
	v.mu.Unlock()
	<-ch
	wakeChans.Put(ch)
}

// advanceLocked wakes the earliest sleeper when every joined
// participant is parked — the barrier condition. Waking exactly one
// keeps execution serialized; the woken participant triggers the next
// advance from its own next Sleep (or Leave). With no participants
// joined, pending sleeps simply drain in deadline order.
func (v *Virtual) advanceLocked() {
	for len(v.sleepers) > 0 && len(v.sleepers) >= v.joined {
		s := v.popSleeper()
		if s.at > v.nowNS {
			v.nowNS = s.at
		}
		s.ch <- struct{}{}
		if v.joined > 0 {
			return // exactly one runnable participant at a time
		}
	}
}

// sleeperBefore orders the sleeper heap by (deadline, schedule order).
func sleeperBefore(a, b vsleeper) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushSleeper inserts into the binary min-heap.
func (v *Virtual) pushSleeper(s vsleeper) {
	q := append(v.sleepers, s)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sleeperBefore(s, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
	v.sleepers = q
}

// popSleeper removes the earliest sleeper.
func (v *Virtual) popSleeper() vsleeper {
	q := v.sleepers
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && sleeperBefore(q[c+1], q[c]) {
				c++
			}
			if !sleeperBefore(q[c], last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	v.sleepers = q
	return top
}
