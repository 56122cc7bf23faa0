package experiments

import (
	"iter"
	"math"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/stats"
)

// The oracle: a deliberately naive simulator that the harnesses of this
// package are held bit-equal to (determinism_test.go). It shares no code
// with what it checks — not the event queue, not the Resource, not the
// cost chains of internal/costmodel (only the Params constants), not
// the rank machines of flat.go — so agreement is evidence about all of
// them at once. Every piece is the plainest thing that can be correct:
// the event list is an unsorted slice scanned for its minimum, a
// resource is a counter and a slice, and each workflow component is a
// straight-line blocking body on a coroutine (iter.Pull) that reads the
// way the paper describes it: sleep a period, stage, repeat. It polls
// every period and runs every cell to its horizon; that the harnesses
// skip idle polls and stop early without changing a reported bit is
// what the comparison shows.

// oSim is the clock and the pending wake-ups, fired in (t, seq) order.
type oSim struct {
	now    float64
	seq    int
	wakes  []oWake
	bodies []*oProc
}

type oWake struct {
	t   float64
	seq int
	p   *oProc
}

// oProc is one blocking body. It runs only between a resume and its next
// park, so bodies share state without locks.
type oProc struct {
	sim    *oSim
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   bool
	joiner *oProc // parked in join, waiting for this body to return
}

type oStopped struct{} // unwinds a body still parked when the run ends

func (s *oSim) wake(t float64, p *oProc) {
	s.seq++
	s.wakes = append(s.wakes, oWake{t, s.seq, p})
}

// spawn starts body at the current time, after the wake-ups already
// pending for it.
func (s *oSim) spawn(body func(p *oProc)) *oProc {
	p := &oProc{sim: s}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (oStopped{}) {
				panic(r)
			}
		}()
		p.yield = yield
		body(p)
		p.done = true
		if p.joiner != nil {
			s.wake(s.now, p.joiner)
		}
	})
	s.bodies = append(s.bodies, p)
	s.wake(s.now, p)
	return p
}

// run fires wake-ups up to and including time until, then unwinds every
// body still parked. It returns the time of the last one fired.
func (s *oSim) run(until float64) float64 {
	for len(s.wakes) > 0 {
		first := 0
		for i, w := range s.wakes {
			if f := s.wakes[first]; w.t < f.t || w.t == f.t && w.seq < f.seq {
				first = i
			}
		}
		w := s.wakes[first]
		if w.t > until {
			break
		}
		s.wakes[first] = s.wakes[len(s.wakes)-1]
		s.wakes = s.wakes[:len(s.wakes)-1]
		s.now = w.t
		w.p.resume()
	}
	for _, p := range s.bodies {
		p.stop()
	}
	return s.now
}

func (p *oProc) park() {
	if !p.yield(struct{}{}) {
		panic(oStopped{})
	}
}

func (p *oProc) sleep(d float64) {
	p.sim.wake(p.sim.now+d, p)
	p.park()
}

// join blocks until q's body has returned.
func (p *oProc) join(q *oProc) {
	if !q.done {
		q.joiner = p
		p.park()
	}
}

// oRes is a counted FIFO resource.
type oRes struct {
	sim    *oSim
	free   int
	queue  []oWake // t is when the claimant queued
	waitS  float64
	grants int
}

func (s *oSim) resource(capacity int) *oRes { return &oRes{sim: s, free: capacity} }

func (r *oRes) acquire(p *oProc) {
	if r.free > 0 {
		r.free--
		r.grants++
		return
	}
	r.queue = append(r.queue, oWake{t: r.sim.now, p: p})
	p.park()
}

// release hands the slot to the longest-queued claimant, if there is one.
func (r *oRes) release() {
	if len(r.queue) == 0 {
		r.free++
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.waitS += r.sim.now - next.t
	r.grants++
	r.sim.wake(r.sim.now, next.p)
}

func (r *oRes) use(p *oProc, d float64) {
	r.acquire(p)
	p.sleep(d)
	r.release()
}

// meanWaitS is the mean queueing delay per grant.
func (r *oRes) meanWaitS() float64 {
	if r == nil || r.grants == 0 {
		return 0
	}
	return r.waitS / float64(r.grants)
}

// oModel is the cost model restated from its constants: what one staged
// transfer queues on, and for how long.
type oModel struct {
	sim   *oSim
	c     costmodel.Params
	spec  cluster.Spec
	bus   []*oRes // per-node exchange concurrency
	mds   *oRes   // the one Lustre metadata server
	ost   *oRes   // OST stream slots
	nic   *oRes   // the trainer's NIC, sized on first use
	slots *oRes   // a shared deployment's service slots, nil for a dedicated one
}

func newOModel(s *oSim, spec cluster.Spec, c *costmodel.Params, shared bool, b datastore.Backend) *oModel {
	m := &oModel{sim: s, c: costmodel.Default(), spec: spec, mds: s.resource(1)}
	if c != nil {
		m.c = *c
	}
	for range spec.Nodes {
		m.bus = append(m.bus, s.resource(m.c.NodeBusConcurrency))
	}
	m.ost = s.resource(m.c.LustreOSTConcurrency)
	switch {
	case shared && b == datastore.Redis:
		m.slots = s.resource(datastore.ServerConfig{Backend: b, Instances: m.c.RedisSharedSlots}.ServiceSlots())
	case shared && b == datastore.Dragon:
		m.slots = s.resource(datastore.ServerConfig{Backend: b, Instances: m.c.DragonSharedSlots}.ServiceSlots())
	}
	return m
}

// spill is bandwidth bw degraded by one factor of itself per doubling of
// mb past knee: the L3 share for local exchange, Dragon's protocol
// window for remote reads.
func spill(bw, mb, knee, factor float64) float64 {
	if mb <= knee {
		return bw
	}
	return bw / (1 + factor*math.Log2(mb/knee))
}

// local blocks p for one co-located stage_write (scale 1) or stage_read
// (scale 0.85) of mb megabytes on node, and returns how long it took.
func (m *oModel) local(p *oProc, b datastore.Backend, node int, mb, scale float64) float64 {
	start := m.sim.now
	c := m.c
	if m.slots != nil { // the shared deployment serves the op before the client moves the bytes
		serviceS, bw := c.RedisSharedServiceS, c.RedisSharedBWGBps
		if b == datastore.Dragon {
			serviceS, bw = c.DragonSharedServiceS, c.DragonSharedBWGBps
		}
		m.slots.use(p, (serviceS+mb/1000/bw)*scale)
	}
	if b == datastore.FileSystem {
		for range c.LustreMetaOpsPerTransfer {
			p.sleep(c.LustreClientRPCS * scale)
			m.mds.use(p, c.LustreMDSServiceS)
		}
		m.ost.use(p, mb/1000/c.LustreStreamBWGBps*scale)
		return m.sim.now - start
	}
	overheadS, bw := c.NodeLocalOverheadS, c.NodeLocalBWGBps
	switch b {
	case datastore.Dragon:
		overheadS, bw = c.DragonOverheadS, c.DragonBWGBps
	case datastore.Redis:
		overheadS, bw = c.RedisOverheadS, c.RedisBWGBps
	}
	m.bus[node].use(p, (overheadS+mb/1000/spill(bw, mb, c.CacheShareMB, c.CacheSpillFactor))*scale)
	return m.sim.now - start
}

// remote is one non-local read stream of backend b: its latency, its
// bandwidth and how many a client keeps in flight.
func (m *oModel) remote(b datastore.Backend, mb float64) (latS, bw float64, inFlight int) {
	c := m.c
	switch b {
	case datastore.Redis:
		latS, bw, inFlight = c.RedisRemoteLatencyS, c.RedisRemoteBWGBps, c.RedisRemoteConcurrency
	case datastore.Dragon:
		latS, inFlight = c.DragonRemoteLatencyS, c.DragonRemoteConcurrency
		bw = spill(c.DragonRemoteBWGBps, mb, c.DragonWindowMB, c.DragonWindowFactor)
	case datastore.FileSystem:
		latS = float64(c.LustreMetaOpsPerTransfer) * (c.LustreClientRPCS + c.LustreMDSServiceS)
		bw, inFlight = c.LustreStreamBWGBps, c.FSRemoteConcurrency
	}
	if m.nic == nil { // as many full-rate streams as the NIC's injection bandwidth admits
		m.nic = m.sim.resource(max(1, int(m.spec.NICGBps/bw)))
	}
	return latS, bw, max(1, inFlight)
}

// remoteRead blocks p for one non-local stage_read.
func (m *oModel) remoteRead(p *oProc, b datastore.Backend, mb float64) float64 {
	start := m.sim.now
	latS, bw, _ := m.remote(b, mb)
	m.nic.use(p, latS+mb/1000/bw)
	return m.sim.now - start
}

// fetchAll blocks p until one array from each of n simulations has
// arrived: n concurrent fetches, inFlight at a time, through the NIC.
func (m *oModel) fetchAll(p *oProc, b datastore.Backend, n int, mb float64) float64 {
	start := m.sim.now
	latS, bw, inFlight := m.remote(b, mb)
	if b == datastore.Dragon {
		latS += m.c.DragonIncastLatencyS // the dictionary's per-message incast handling
	}
	window := m.sim.resource(inFlight)
	fetches := make([]*oProc, n)
	for i := range fetches {
		fetches[i] = m.sim.spawn(func(f *oProc) {
			window.acquire(f)
			m.nic.use(f, latS+mb/1000/bw)
			window.release()
		})
	}
	for _, f := range fetches {
		p.join(f)
	}
	return m.sim.now - start
}

// oColocated is what a co-located run measured.
type oColocated struct {
	writeTime, readTime stats.Welford
	writeTput, readTput stats.Throughput
	writes              []float64 // every staged write's latency
	sharedWaitS         float64   // mean queueing delay at the shared serialization point
	aggGBps             float64   // bytes staged per second of the whole run
}

// oracleColocated is the co-located one-to-one workflow of Pattern 1 and
// (shared) scale-out, w's defaults already applied: on every node six
// solvers that compute a write period and stage a snapshot, and six
// trainers that poll every read period and read when a write period has
// passed since their last read.
func oracleColocated(w ScaleOutConfig, shared bool) *oColocated {
	nodes := w.Tenants * w.NodesPerTenant
	spec := cluster.Aurora(nodes)
	place := cluster.Pattern1Placement(spec)
	sim := &oSim{}
	m := newOModel(sim, spec, w.Params, shared, w.Backend)
	run := &oColocated{}
	horizon := float64(w.TrainIters) * w.TrainIterS
	bytes := int64(w.SizeMB * 1e6)
	writePeriod := float64(w.WritePeriod) * w.SimIterS
	readPeriod := float64(w.ReadPeriod) * w.TrainIterS
	for node := range nodes {
		for range place.SimTilesPerNode {
			sim.spawn(func(p *oProc) {
				for sim.now < horizon {
					p.sleep(writePeriod)
					d := m.local(p, w.Backend, node, w.SizeMB, 1)
					run.writeTime.Add(d)
					run.writeTput.Add(bytes, d)
					run.writes = append(run.writes, d)
				}
			})
		}
		for range place.AITilesPerNode {
			sim.spawn(func(p *oProc) {
				lastRead := -writePeriod
				for sim.now < horizon {
					p.sleep(readPeriod)
					if sim.now-lastRead < writePeriod {
						continue // no new snapshot can have been staged yet
					}
					lastRead = sim.now
					d := m.local(p, w.Backend, node, w.SizeMB, 0.85)
					run.readTime.Add(d)
					run.readTput.Add(bytes, d)
				}
			})
		}
	}
	end := sim.run(horizon * 1.5)
	run.aggGBps = float64(len(run.writes)) * float64(bytes) / 1e9 / end
	run.sharedWaitS = m.slots.meanWaitS()
	if w.Backend == datastore.FileSystem {
		run.sharedWaitS = m.mds.meanWaitS() // every tenant's metadata ops meet at the one MDS
	}
	return run
}

func oraclePattern1(cfg Pattern1Config) Pattern1Point {
	cfg = cfg.withDefaults()
	run := oracleColocated(ScaleOutConfig{
		Tenants: 1, NodesPerTenant: cfg.Nodes, Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		SimIterS: cfg.SimIterS, TrainIterS: cfg.TrainIterS,
		WritePeriod: cfg.WritePeriod, ReadPeriod: cfg.ReadPeriod, TrainIters: cfg.TrainIters, Params: cfg.Params,
	}, false)
	return Pattern1Point{
		Nodes: cfg.Nodes, Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		ReadGBps: run.readTput.MeanGBps(), WriteGBps: run.writeTput.MeanGBps(),
		ReadMeanS: run.readTime.Mean(), WriteMean: run.writeTime.Mean(),
		SimIterS: cfg.SimIterS, TrainIter: cfg.TrainIterS,
		Writes: run.writeTime.N(), Reads: run.readTime.N(),
	}
}

func oracleScaleOut(cfg ScaleOutConfig) ScaleOutPoint {
	cfg = cfg.withDefaults()
	run := oracleColocated(cfg, true)
	return ScaleOutPoint{
		Tenants: cfg.Tenants, Backend: cfg.Backend, SizeMB: cfg.SizeMB,
		WriteGBps: run.writeTput.MeanGBps(), ReadGBps: run.readTput.MeanGBps(),
		StageMeanS: run.writeTime.Mean(), StageP50S: stats.QuantileInPlace(run.writes, 0.5),
		SharedWaitS: run.sharedWaitS, AggGBps: run.aggGBps, Writes: run.writeTime.N(),
	}
}

// oracleFig5 is the 2-node pair: stage locally on node 0, read it from
// node 1, cfg.Transfers times.
func oracleFig5(cfg Fig5Config) Fig5Point {
	sim := &oSim{}
	m := newOModel(sim, cluster.Aurora(2), cfg.Params, false, cfg.Backend)
	bytes := int64(cfg.SizeMB * 1e6)
	var writeTput, readTput stats.Throughput
	sim.spawn(func(p *oProc) {
		for range cfg.Transfers {
			writeTput.Add(bytes, m.local(p, cfg.Backend, 0, cfg.SizeMB, 1))
			readTput.Add(bytes, m.remoteRead(p, cfg.Backend, cfg.SizeMB))
		}
	})
	sim.run(math.Inf(1))
	return Fig5Point{Backend: cfg.Backend, SizeMB: cfg.SizeMB, ReadGBps: readTput.MeanGBps(), WriteGBps: writeTput.MeanGBps()}
}

// oracleFig6 is the many-to-one workflow: one simulation per node
// staging locally every write period, and one trainer on a node of its
// own that computes a read period, then blocks until it has fetched the
// whole ensemble. Everything runs to the horizon cap. RunFig6Checked
// leaves the writers out — their load lands on the node buses and the
// Lustre model, and a fetch queues only on its own semaphore and the
// trainer's NIC — so the writers are kept here: a harness point equal to
// this one is what proves leaving them out exact.
func oracleFig6(cfg Fig6Config) Fig6Point {
	cfg = cfg.withDefaults()
	sim := &oSim{}
	m := newOModel(sim, cluster.Aurora(cfg.Nodes+1), cfg.Params, false, cfg.Backend)
	horizon := float64(cfg.TrainIters) * cfg.TrainIterS * 10
	for node := range cfg.Nodes {
		sim.spawn(func(p *oProc) {
			for sim.now < horizon {
				p.sleep(float64(cfg.WritePeriod) * cfg.SimIterS)
				m.local(p, cfg.Backend, node, cfg.SizeMB, 1)
			}
		})
	}
	var fetchTime stats.Welford
	lastPeriodEnd, periods := 0.0, 0
	sim.spawn(func(p *oProc) {
		for range cfg.TrainIters / cfg.ReadPeriod {
			p.sleep(float64(cfg.ReadPeriod) * cfg.TrainIterS)
			fetchTime.Add(m.fetchAll(p, cfg.Backend, cfg.Nodes, cfg.SizeMB))
			lastPeriodEnd = sim.now
			periods++
		}
	})
	sim.run(horizon)
	pt := Fig6Point{Nodes: cfg.Nodes, Backend: cfg.Backend, SizeMB: cfg.SizeMB, FetchMeanS: fetchTime.Mean()}
	if periods > 0 {
		pt.ExecPerIterS = lastPeriodEnd / float64(periods*cfg.ReadPeriod)
	}
	return pt
}
