package costmodel

import (
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// Multi-tenant contention: when N concurrent workflows share one backend
// deployment (the scale-out scenarios), a staged operation first queues
// on the deployment's server-side service slots, then runs the ordinary
// client-side transfer chain. Which backends have such a shared
// serialization point — and how many slots a deployment offers — comes
// from internal/datastore (SharedDeployment, ServerConfig.ServiceSlots),
// so the queueing model stays tied to the ServerManager-level deployment
// shape:
//
//   - Redis / Dragon: a des.Resource with one slot per server instance,
//     held for the server-side service duration of each op.
//   - FileSystem: no extra queue — the model's Lustre MDS and OST pool
//     already are the shared serialization points, and every tenant's
//     transfers route through them.
//   - NodeLocal: nothing shared; tenants on dedicated nodes scale
//     perfectly (and co-located tenants still contend on the node bus).
//
// All of this is opt-in through a shared XferTable (NewXferTable with
// shared, NewSharedLocalWrite); single-tenant transfers never touch the
// shared queues, so the paper's single-tenant scenarios replay exactly
// the same event sequences as before.

// sharedParams returns the model's shared-deployment constants with any
// zero field replaced by the calibrated default. Callers routinely build
// a custom Params by tweaking one single-tenant constant and leaving the
// rest zero; a zero slot count silently modeling a 1-shard deployment
// would overstate contention ~4x, so zero means "calibrated", not "one".
func (m *Model) sharedParams() Params {
	p := m.params
	d := Default()
	if p.RedisSharedSlots <= 0 {
		p.RedisSharedSlots = d.RedisSharedSlots
	}
	if p.RedisSharedServiceS <= 0 {
		p.RedisSharedServiceS = d.RedisSharedServiceS
	}
	if p.RedisSharedBWGBps <= 0 {
		p.RedisSharedBWGBps = d.RedisSharedBWGBps
	}
	if p.DragonSharedSlots <= 0 {
		p.DragonSharedSlots = d.DragonSharedSlots
	}
	if p.DragonSharedServiceS <= 0 {
		p.DragonSharedServiceS = d.DragonSharedServiceS
	}
	if p.DragonSharedBWGBps <= 0 {
		p.DragonSharedBWGBps = d.DragonSharedBWGBps
	}
	return p
}

// sharedService returns (and lazily creates) the shared-deployment
// service queue for backend b, or nil when b has no server-side queue of
// its own (node-local: nothing shared; filesystem: MDS/OST model it).
func (m *Model) sharedService(b datastore.Backend) *des.Resource {
	if r := m.sharedSvc[b]; r != nil {
		return r
	}
	cfg := datastore.ServerConfig{Backend: b}
	switch b {
	case datastore.Redis:
		cfg.Instances = m.sharedParams().RedisSharedSlots
	case datastore.Dragon:
		cfg.Instances = m.sharedParams().DragonSharedSlots
	default:
		return nil
	}
	r := des.NewResource(m.env, cfg.ServiceSlots())
	m.sharedSvc[b] = r
	return r
}

// sharedHold returns the server-side service duration of one mb-MB op
// against backend b's shared deployment: a write's or, with read, a
// read's (which carries LocalCost's read scale).
func (m *Model) sharedHold(b datastore.Backend, mb float64, read bool) float64 {
	p := m.sharedParams()
	costScale := 1.0
	if read {
		costScale = readCostScale
	}
	switch b {
	case datastore.Redis:
		return (p.RedisSharedServiceS + mb/1000/p.RedisSharedBWGBps) * costScale
	case datastore.Dragon:
		return (p.DragonSharedServiceS + mb/1000/p.DragonSharedBWGBps) * costScale
	}
	return 0
}

// SharedWaitS reports the observed mean queueing delay (virtual seconds
// per granted op) at backend b's shared serialization point: the service
// queue for Redis/Dragon, the Lustre MDS for the file system, zero for
// node-local. This is the "backend throughput collapse" observable of
// the scale-out tables.
func (m *Model) SharedWaitS(b datastore.Backend) float64 {
	switch b {
	case datastore.FileSystem:
		return m.mds.stats().AvgWaitS()
	case datastore.Redis, datastore.Dragon:
		if r := m.sharedService(b); r != nil {
			return r.Stats().AvgWaitS()
		}
	}
	return 0
}

// NewSharedLocalWrite builds a reusable stage_write op against a shared
// deployment of backend b: queue for a server-side service slot (when
// the backend has one), hold it for the service duration, then run the
// ordinary client-side transfer. done fires when the transfer completes.
func (m *Model) NewSharedLocalWrite(b datastore.Backend, node int, mb float64, done func()) Xfer {
	return Xfer{m.newXferTable(b, node, 1, 1, mb, false, true, des.Func(done))}
}
