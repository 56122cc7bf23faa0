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

// XferCost is one uncontended transfer, phase by phase as the chains
// schedule it: MetaOps metadata rounds, each a client RPC (RPCS) then
// the MDS service (MDSS), then one timed hold (HoldS) of the node bus,
// an OST stream slot or the trainer NIC.
type XferCost struct {
	MetaOps    int
	RPCS, MDSS float64
	HoldS      float64
}

// readCostScale is what a stage_read costs relative to its stage_write:
// the paper's Fig 3 shows near-mirrored read/write profiles for local
// exchange, with reads slightly cheaper (no temp-file rename, no
// dirty-page copy-back).
const readCostScale = 0.85

// LocalCost returns the cost of one co-located stage_write of mb
// megabytes on backend b or, with read, of the stage_read.
func (p *Params) LocalCost(b datastore.Backend, mb float64, read bool) XferCost {
	scale := 1.0
	if read {
		scale = readCostScale
	}
	if b == datastore.FileSystem {
		// The single MDS queue is where the 512-node collapse comes from.
		return XferCost{
			MetaOps: p.LustreMetaOpsPerTransfer,
			RPCS:    p.LustreClientRPCS * scale,
			MDSS:    p.LustreMDSServiceS,
			HoldS:   mb / 1000 / p.LustreStreamBWGBps * scale,
		}
	}
	overhead, bw := p.localMemParams(b)
	return XferCost{HoldS: (overhead + mb/1000/p.cacheEff(bw, mb)) * scale}
}

// RemoteReadCost returns the cost of one non-local stage_read of mb
// megabytes — Fig 5's 2-node experiment: one timed hold of the trainer
// NIC. Node-local has none: it panics.
func (p *Params) RemoteReadCost(b datastore.Backend, mb float64) XferCost {
	lat, bw, _ := p.remoteParams(b, mb)
	return XferCost{HoldS: lat + mb/1000/bw}
}

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
	cost  XferCost
	i     int // metadata rounds made
	// A file-system transfer queues its metadata rounds on mds and holds
	// an OST slot; an in-memory one holds the node's exchange bus.
	mds, bus *des.Resource
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
	return m.newLocalXfer(b, node, mb, false, done)
}

// NewLocalRead builds the symmetric stage_read op (LocalCost's read
// scale).
func (m *Model) NewLocalRead(b datastore.Backend, node int, mb float64, done func()) *LocalXfer {
	return m.newLocalXfer(b, node, mb, true, done)
}

func (m *Model) newLocalXfer(b datastore.Backend, node int, mb float64, read bool, done func()) *LocalXfer {
	x := m.localArena.alloc()
	x.env, x.done = m.env, done
	x.cost = m.params.LocalCost(b, mb, read)
	if b == datastore.FileSystem {
		x.mds, x.bus = m.mds, m.ostPool
	} else {
		x.bus = m.nodeBus[node%len(m.nodeBus)]
	}
	x.step = func() {
		switch x.phase {
		case xferGranted:
			x.phase = xferHeld
			x.env.After(x.cost.HoldS, x.step)
		case xferHeld:
			x.bus.Release()
			x.done()
		case xferRPCDone:
			x.phase = xferMDSGranted
			x.mds.Request(x.step)
		case xferMDSGranted:
			x.phase = xferMDSDone
			x.env.After(x.cost.MDSS, x.step)
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
	if x.i < x.cost.MetaOps {
		x.i++
		x.phase = xferRPCDone
		x.env.After(x.cost.RPCS, x.step)
		return
	}
	x.phase = xferGranted
	x.bus.Request(x.step)
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
	lat, bw, conc := m.params.remoteParams(b, mb)
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
