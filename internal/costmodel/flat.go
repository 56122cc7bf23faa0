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

	// in-memory exchange (node-local, dragon, redis): one two-phase
	// closure (grant → timed hold → release) instead of a closure per
	// phase, halving the per-rank closure allocations of the sweeps.
	bus     *des.Resource
	hold    float64
	holding bool
	memStep func()

	// shared file system (lustre)
	lustre     bool
	metaOps    int
	i          int
	rpcS       float64
	mdsS       float64
	streamS    float64
	mds        *des.Resource
	ost        *des.Resource
	step       func()
	afterRPC   func()
	onMDSGrant func()
	onMDSDone  func()
	onOSTGrant func()
	onOSTDone  func()
}

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
		// One staged read/write against the shared file system: metaOps
		// × (client RPC, then the single MDS queue — this is where the
		// 512-node collapse comes from), then one OST stream.
		x.lustre = true
		x.metaOps = m.params.LustreMetaOpsPerTransfer
		x.rpcS = m.params.LustreClientRPCS * costScale
		x.mdsS = m.params.LustreMDSServiceS
		x.streamS = mb / 1000 / m.params.LustreStreamBWGBps * costScale
		x.mds, x.ost = m.mds, m.ostPool
		x.step = func() {
			if x.i < x.metaOps {
				x.i++
				x.env.After(x.rpcS, x.afterRPC)
				return
			}
			x.ost.Request(x.onOSTGrant)
		}
		x.afterRPC = func() { x.mds.Request(x.onMDSGrant) }
		x.onMDSGrant = func() { x.env.After(x.mdsS, x.onMDSDone) }
		x.onMDSDone = func() { x.mds.Release(); x.step() }
		x.onOSTGrant = func() { x.env.After(x.streamS, x.onOSTDone) }
		x.onOSTDone = func() { x.ost.Release(); x.done() }
		return x
	}
	// In-memory exchange: one timed hold of the node's exchange bus. The
	// hold duration is constant per (backend, size), so it is computed
	// once here.
	overhead, bw := m.localMemParams(b)
	x.hold = (overhead + mb/1000/m.cacheEff(bw, mb)) * costScale
	x.bus = m.nodeBus[node%len(m.nodeBus)]
	x.memStep = func() {
		if !x.holding {
			x.holding = true // granted: hold the bus for the transfer
			x.env.After(x.hold, x.memStep)
			return
		}
		x.holding = false
		x.bus.Release()
		x.done()
	}
	return x
}

// Start begins the transfer at the current virtual time.
func (x *LocalXfer) Start() {
	if x.lustre {
		x.i = 0
		x.step()
		return
	}
	x.bus.Request(x.memStep)
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
