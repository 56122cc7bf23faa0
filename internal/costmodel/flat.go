package costmodel

import (
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// The modeled operations: reusable objects that run as callback chains
// on the des scheduler. Each object is allocated once per rank (all
// closures are built in the constructor) and Start()ed once per
// transfer, so the steady-state hot path performs zero allocations —
// every step is a value-record push into the event heap.
//
// What a chain promises is one transfer, Start to done: which resources
// it queues on, in which order, for how long. The experiments package
// restates each chain as a straight-line blocking body in its test-only
// oracle and holds the two bit-equal. When a rank machine starts its
// next transfer is the machine's business (experiments/flat.go: a rank
// skips the polls that would start nothing).

// LocalXfer models one co-located stage_write/stage_read of a fixed
// (backend, node, size), completing through a done callback. Construct
// with NewLocalWrite/NewLocalRead; call Start at most once at a time.
type LocalXfer struct {
	env  *des.Env
	done func()
	// step is the one closure of every phase: each call runs the phase
	// the previous one left, so a transfer allocates one closure.
	step  func()
	phase int
	// A file-system transfer first makes metaOps metadata rounds
	// (client RPC, then the single MDS queue — this is where the
	// 512-node collapse comes from); an in-memory one makes none.
	metaOps, i int
	rpcS, mdsS float64
	mds        *des.Resource
	// Then one timed hold of bus: the node's exchange bus (node-local,
	// dragon, redis) or an OST stream slot (file system).
	bus  *des.Resource
	hold float64
}

// The phases of a LocalXfer: what its next step call finds done.
const (
	xferGranted    = iota // the bus (or OST) queue
	xferHeld              // the timed hold
	xferRPCDone           // a client RPC
	xferMDSGranted        // the MDS queue
	xferMDSDone           // the MDS service
)

// NewLocalWrite builds a reusable stage_write op of mb megabytes on node;
// done fires when the transfer completes.
func (m *Model) NewLocalWrite(b datastore.Backend, node int, mb float64, done func()) *LocalXfer {
	return m.newLocalXfer(b, node, mb, 1.0, done)
}

// NewLocalRead builds the symmetric stage_read op: the paper's Fig 3
// shows near-mirrored read/write profiles for local exchange, with reads
// slightly cheaper (no temp-file rename, no dirty-page copy-back), here
// a 0.85 cost scale.
func (m *Model) NewLocalRead(b datastore.Backend, node int, mb float64, done func()) *LocalXfer {
	return m.newLocalXfer(b, node, mb, 0.85, done)
}

func (m *Model) newLocalXfer(b datastore.Backend, node int, mb, costScale float64, done func()) *LocalXfer {
	x := m.localArena.alloc()
	x.env, x.done = m.env, done
	if b == datastore.FileSystem {
		x.metaOps = m.params.LustreMetaOpsPerTransfer
		x.rpcS = m.params.LustreClientRPCS * costScale
		x.mdsS = m.params.LustreMDSServiceS
		x.mds, x.bus = m.mds, m.ostPool
		x.hold = mb / 1000 / m.params.LustreStreamBWGBps * costScale
	} else {
		// The in-memory hold is constant per (backend, size), so it is
		// computed once here.
		overhead, bw := m.localMemParams(b)
		x.hold = (overhead + mb/1000/m.cacheEff(bw, mb)) * costScale
		x.bus = m.nodeBus[node%len(m.nodeBus)]
	}
	x.step = func() {
		switch x.phase {
		case xferGranted:
			x.phase = xferHeld
			x.env.After(x.hold, x.step)
		case xferHeld:
			x.bus.Release()
			x.done()
		case xferRPCDone:
			x.phase = xferMDSGranted
			x.mds.Request(x.step)
		case xferMDSGranted:
			x.phase = xferMDSDone
			x.env.After(x.mdsS, x.step)
		case xferMDSDone:
			x.mds.Release()
			x.next()
		}
	}
	return x
}

// Start begins the transfer at the current virtual time.
func (x *LocalXfer) Start() {
	x.i = 0
	x.next()
}

// next starts the next metadata round or, after the last, queues for bus.
func (x *LocalXfer) next() {
	if x.i < x.metaOps {
		x.i++
		x.phase = xferRPCDone
		x.env.After(x.rpcS, x.step)
		return
	}
	x.phase = xferGranted
	x.bus.Request(x.step)
}

// RemoteXfer models a single non-local stage_read of a fixed (backend,
// size) — Fig 5's 2-node experiment: one timed hold of the trainer NIC.
type RemoteXfer struct {
	env     *des.Env
	nic     *des.Resource
	hold    float64
	done    func()
	onGrant func()
	onHold  func()
}

// NewRemoteRead builds a reusable non-local read op.
func (m *Model) NewRemoteRead(b datastore.Backend, mb float64, done func()) *RemoteXfer {
	lat, bw, _ := m.remoteParams(b, mb)
	x := &RemoteXfer{env: m.env, nic: m.nic(b, bw), hold: lat + mb/1000/bw, done: done}
	x.onGrant = func() { x.env.After(x.hold, x.onHold) }
	x.onHold = func() { x.nic.Release(); x.done() }
	return x
}

// Start begins the read at the current virtual time.
func (x *RemoteXfer) Start() {
	x.nic.Request(x.onGrant)
}

// EnsembleFetch models the trainer's blocking many-to-one read: n staged
// arrays fetched with the backend's client concurrency through the
// shared trainer NIC. Start launches all n fetch chains and done fires
// once every one has completed (the paper's AI component "blocks until
// all data for that specific update iteration has arrived"), awaited in
// index order as a loop of blocking joins would.
type EnsembleFetch struct {
	env      *des.Env
	done     func()
	sem      *des.Resource
	nic      *des.Resource
	hold     float64
	fetches  []*fetchChain
	awaitIdx int
	await    func()
}

// fetchChain is one of the n per-source fetches: concurrency slot, then
// NIC hold, then completion.
type fetchChain struct {
	f         *EnsembleFetch
	completed bool
	notify    bool // the awaiter is parked on this fetch
	start     func()
	onSem     func()
	onNIC     func()
	onHold    func()
}

// NewEnsembleFetch builds a reusable ensemble read; allocate once per
// trainer and Start once per read period.
func (m *Model) NewEnsembleFetch(b datastore.Backend, n int, mb float64, done func()) *EnsembleFetch {
	lat, bw, conc := m.remoteParams(b, mb)
	if b == datastore.Dragon {
		// Many-to-one drains pay the dictionary's per-message incast
		// handling on top of the p2p setup cost.
		lat += m.params.DragonIncastLatencyS
	}
	if conc < 1 {
		conc = 1
	}
	f := &EnsembleFetch{
		env:  m.env,
		done: done,
		sem:  des.NewResource(m.env, conc),
		nic:  m.nic(b, bw),
		hold: lat + mb/1000/bw,
	}
	f.fetches = make([]*fetchChain, n)
	for i := range f.fetches {
		fc := &fetchChain{f: f}
		fc.start = func() { f.sem.Request(fc.onSem) }
		fc.onSem = func() { f.nic.Request(fc.onNIC) }
		fc.onNIC = func() { f.env.After(f.hold, fc.onHold) }
		fc.onHold = func() {
			f.nic.Release()
			f.sem.Release()
			fc.completed = true
			if fc.notify {
				fc.notify = false
				f.env.Schedule(f.env.Now(), f.await)
			}
		}
		f.fetches[i] = fc
	}
	// await joins the fetches in index order: skip completed ones
	// synchronously, park on the first pending one.
	f.await = func() {
		for f.awaitIdx < len(f.fetches) && f.fetches[f.awaitIdx].completed {
			f.awaitIdx++
		}
		if f.awaitIdx == len(f.fetches) {
			f.done()
			return
		}
		f.fetches[f.awaitIdx].notify = true
	}
	return f
}

// Start launches all fetches at the current virtual time; done fires
// when the last completes. Start must not be called again before then.
func (f *EnsembleFetch) Start() {
	f.awaitIdx = 0
	now := f.env.Now()
	for _, fc := range f.fetches {
		fc.completed = false
		f.env.Schedule(now, fc.start)
	}
	f.await()
}
