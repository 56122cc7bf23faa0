package costmodel

import (
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// The modeled operations run as callback chains on the des scheduler.
// A co-located transfer is a row of an XferTable: the table holds the
// one cost its rows share and the resources they queue on, a row holds
// only its phase and metadata round, and the table is the des.Handler
// every phase of every row fires, so a cell's transfers cost a few
// slices however many ranks it has, and starting one allocates nothing.
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

// XferTable is a table of co-located stage_writes or stage_reads of one
// (backend, size): Start(row) begins row's transfer at the current
// virtual time, and when it completes the table fires its owner's
// Fire(row), synchronously. A row must not be started again before
// then. Rows sit perNode to a node, from node 0 up: an in-memory
// transfer holds its node's exchange bus, a file-system one queues its
// metadata rounds on the MDS and holds an OST slot.
type XferTable struct {
	env   *des.Env
	owner des.Handler
	cost  XferCost
	// buses[row/perNode] is the row's bus: its node's exchange bus, or
	// for the file system the OST pool (perNode = every row).
	buses   []des.Resource
	perNode int32
	// mds serves a file-system table's metadata rounds (table mdsTab).
	mds             *mdsQueue
	mdsTab, mdsRing int32
	// Against a shared multi-tenant deployment (shared.go) a transfer
	// first holds one of svc's service slots for svcS; nil: it does not.
	svc  *des.Resource
	svcS float64
	rows []xferRow
}

// xferRow is one transfer's progress: the phase its next Fire finds
// done, and the metadata rounds made.
type xferRow struct {
	phase uint8
	meta  int32
}

// The phases of a transfer: what the row's next Fire finds done.
const (
	xferSvcGranted = iota // the shared deployment's service queue
	xferSvcHeld           // the service hold
	xferGranted           // the bus (or OST) queue
	xferHeld              // the timed hold
)

// NewXferTable builds n transfers of mb megabytes on backend b, perNode
// rows to a node: stage_writes, or with read stage_reads (LocalCost's
// read scale), and with shared against a multi-tenant deployment of b.
// Row r fires owner.Fire(r) when its transfer completes.
func (m *Model) NewXferTable(b datastore.Backend, n, perNode int, mb float64, read, shared bool, owner des.Handler) *XferTable {
	return m.newXferTable(b, 0, n, perNode, mb, read, shared, owner)
}

// newXferTable is NewXferTable with the first row on node node0.
func (m *Model) newXferTable(b datastore.Backend, node0, n, perNode int, mb float64, read, shared bool, owner des.Handler) *XferTable {
	x := &XferTable{
		env: m.env, owner: owner, cost: m.params.LocalCost(b, mb, read),
		perNode: int32(perNode), rows: make([]xferRow, n),
	}
	if b == datastore.FileSystem {
		x.buses, x.perNode = m.ost, int32(max(n, 1))
		if x.cost.MetaOps > 0 {
			x.mds = &m.mds
			x.mdsTab, x.mdsRing = m.mds.register(x, x.cost.RPCS)
		}
	} else {
		x.buses = m.nodeBus[node0%len(m.nodeBus):]
	}
	if shared {
		x.svc, x.svcS = m.sharedService(b), m.sharedHold(b, mb, read)
	}
	return x
}

// Xfer is one transfer, the one row of its table: what NewLocalWrite
// and NewSharedLocalWrite build.
type Xfer struct{ t *XferTable }

// Start begins the transfer at the current virtual time.
func (x Xfer) Start() { x.t.Start(0) }

// NewLocalWrite builds a reusable stage_write op of mb megabytes on node;
// done fires when the transfer completes.
func (m *Model) NewLocalWrite(b datastore.Backend, node int, mb float64, done func()) Xfer {
	return Xfer{m.newXferTable(b, node, 1, 1, mb, false, false, des.Func(done))}
}

// Start begins row's transfer at the current virtual time.
func (x *XferTable) Start(row int32) {
	if x.svc != nil {
		x.rows[row].phase = xferSvcGranted
		x.svc.RequestRow(x, row)
		return
	}
	x.begin(row)
}

// begin starts row's client-side transfer.
func (x *XferTable) begin(row int32) {
	x.rows[row].meta = 0
	x.next(row)
}

// next starts row's next metadata round or, after the last, queues it
// for its bus.
func (x *XferTable) next(row int32) {
	r := &x.rows[row]
	if int(r.meta) < x.cost.MetaOps {
		r.meta++
		x.mds.claim(x.mdsTab, x.mdsRing, row)
		return
	}
	r.phase = xferGranted
	x.bus(row).RequestRow(x, row)
}

// bus returns the resource row's transfer holds: its node's bus or the
// OST pool.
func (x *XferTable) bus(row int32) *des.Resource { return &x.buses[row/x.perNode] }

// Fire runs the phase row's last one left.
func (x *XferTable) Fire(row int32) {
	r := &x.rows[row]
	switch r.phase {
	case xferSvcGranted:
		r.phase = xferSvcHeld
		x.env.AfterRow(x.svcS, x, row)
	case xferSvcHeld:
		x.svc.Release()
		x.begin(row)
	case xferGranted:
		r.phase = xferHeld
		x.env.AfterRow(x.cost.HoldS, x, row)
	case xferHeld:
		x.bus(row).Release()
		x.owner.Fire(row)
	}
}

// EnsembleFetch models the trainer's blocking many-to-one read: n staged
// arrays fetched with the backend's client concurrency through the
// shared trainer NIC. Start launches all n fetch chains and done fires
// once every one has completed (the paper's AI component "blocks until
// all data for that specific update iteration has arrived"), awaited in
// index order as a loop of blocking joins would. No scenario runs it —
// Fig 6 walks EnsembleFetchCost's description of it instead — only the
// costmodel.ns_per_fetch probe and the tests that hold the two equal;
// its hold, concurrency and NIC capacity come from that one method.
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

// FetchCost is one ensemble read of N arrays by a trainer whose fetch
// slots and NIC are idle when it starts, event by event as
// EnsembleFetch's chains run it. The read's instant executes one start
// event per fetch. Every fetch holds the NIC for HoldS, so the fetches
// complete in index order, in waves of min(Conc, NICCap) one hold apart.
type FetchCost struct {
	HoldS  float64 // latency (plus Dragon's incast handling) and streaming
	Conc   int     // the backend's client fetch concurrency
	NICCap int     // full-rate streams of this backend the trainer NIC admits
	N      int
}

// EnsembleFetchCost returns the cost of reading n arrays of mb megabytes
// from backend b through a trainer NIC of nicGBps.
func (p *Params) EnsembleFetchCost(b datastore.Backend, n int, mb, nicGBps float64) FetchCost {
	lat, bw, conc := p.remoteParams(b, mb)
	if b == datastore.Dragon {
		// Many-to-one drains pay the dictionary's per-message incast
		// handling on top of the p2p setup cost.
		lat += p.DragonIncastLatencyS
	}
	return FetchCost{HoldS: lat + mb/1000/bw, Conc: max(conc, 1), NICCap: max(int(nicGBps/bw), 1), N: n}
}

// Waves returns how many holds the read lasts.
func (c FetchCost) Waves() int {
	w := min(c.Conc, c.NICCap)
	return (c.N + w - 1) / w
}

// WaveEvents returns the events executed when wave j (from 0) ends: each
// of its fetches' onHold, the NIC and fetch-slot grants those releases
// hand to queued fetches, and one join; the last wave's join fires done.
func (c FetchCost) WaveEvents(j int) int64 {
	left := c.N - j*min(c.Conc, c.NICCap) // fetches not yet complete
	slotted := min(left, c.Conc)          // ... holding a fetch slot
	s := min(slotted, c.NICCap)           // ... and the NIC: this wave
	return int64(s + min(s, slotted-s) + min(s, left-slotted) + 1)
}

// NewEnsembleFetch builds a reusable ensemble read; allocate once per
// trainer and Start once per read period.
func (m *Model) NewEnsembleFetch(b datastore.Backend, n int, mb float64, done func()) *EnsembleFetch {
	c := m.params.EnsembleFetchCost(b, n, mb, m.spec.NICGBps)
	f := &EnsembleFetch{
		env:  m.env,
		done: done,
		sem:  des.NewResource(m.env, c.Conc),
		nic:  m.nic(b, c.NICCap),
		hold: c.HoldS,
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
				f.env.At(f.env.Now(), f.await)
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
		f.env.At(now, fc.start)
	}
	f.await()
}
