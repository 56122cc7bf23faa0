package costmodel

import (
	"fmt"
	"math"

	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// Model binds the parameter set to a DES environment and a cluster spec,
// owning the shared contention resources (per-node buses, the Lustre MDS
// and OST pool, the trainer NIC).
type Model struct {
	env    *des.Env
	spec   cluster.Spec
	params Params

	nodeBus []*des.Resource // per-node local-exchange concurrency
	mds     *des.Resource   // single shared Lustre metadata server
	ostPool *des.Resource   // OST stream slots

	// Per-backend resources, created on first use.
	trainerNIC [datastore.NumBackends]*des.Resource
	sharedSvc  [datastore.NumBackends]*des.Resource // multi-tenant shared-deployment service queues (see shared.go)

	// Chunked arenas for the flat transfer objects: the sweeps build one
	// LocalXfer/SharedXfer per rank, and handing them out of chunks
	// costs one allocation per chunk instead of one per rank.
	localArena  xferArena[LocalXfer]
	sharedArena xferArena[SharedXfer]
}

// xferArenaMaxChunk caps an arena's chunk size. Chunks double from 1,
// so a two-node cell allocates one slot for the one transfer it makes
// instead of a 64-slot chunk (10 KB zeroed), and a 512-node model
// reaches 64-slot chunks after six small ones.
const xferArenaMaxChunk = 64

// xferArena hands out zeroed Ts from chunks that grow geometrically up
// to xferArenaMaxChunk. Outstanding pointers stay valid because a full
// chunk is abandoned in place, never copied.
type xferArena[T any] []T

func (a *xferArena[T]) alloc() *T {
	if len(*a) == cap(*a) {
		*a = make([]T, 0, min(max(2*cap(*a), 1), xferArenaMaxChunk))
	}
	var zero T
	*a = append(*a, zero)
	return &(*a)[len(*a)-1]
}

// New builds a model for env/spec with the given parameters.
func New(env *des.Env, spec cluster.Spec, p Params) *Model {
	m := &Model{env: env, spec: spec, params: p}
	m.nodeBus = make([]*des.Resource, spec.Nodes)
	for i := range m.nodeBus {
		m.nodeBus[i] = des.NewResource(env, p.NodeBusConcurrency)
	}
	m.mds = des.NewResource(env, 1)
	m.ostPool = des.NewResource(env, p.LustreOSTConcurrency)
	return m
}

// Params returns the active parameter set.
func (m *Model) Params() Params { return m.params }

// cacheEff returns bandwidth degraded by L3 spill beyond the per-process
// cache share: per doubling above the share, bandwidth shrinks by
// CacheSpillFactor of itself.
func (p *Params) cacheEff(bw, mb float64) float64 {
	share := p.CacheShareMB
	if mb <= share {
		return bw
	}
	doublings := math.Log2(mb / share)
	return bw / (1 + p.CacheSpillFactor*doublings)
}

// windowEff degrades Dragon's remote bandwidth beyond its protocol
// window, giving the ~10 MB peak of Fig 5.
func (p *Params) windowEff(bw, mb float64) float64 {
	w := p.DragonWindowMB
	if mb <= w {
		return bw
	}
	doublings := math.Log2(mb / w)
	return bw / (1 + p.DragonWindowFactor*doublings)
}

// localMemParams returns (overhead, peak bandwidth) for the in-memory
// stores' node-local exchange.
func (p *Params) localMemParams(b datastore.Backend) (float64, float64) {
	switch b {
	case datastore.NodeLocal:
		return p.NodeLocalOverheadS, p.NodeLocalBWGBps
	case datastore.Dragon:
		return p.DragonOverheadS, p.DragonBWGBps
	case datastore.Redis:
		return p.RedisOverheadS, p.RedisBWGBps
	}
	panic(fmt.Sprintf("costmodel: %v is not an in-memory backend", b))
}

// remoteParams returns (latency, bandwidth(mb), concurrency) for one
// non-local fetch stream of backend b.
func (p *Params) remoteParams(b datastore.Backend, mb float64) (lat, bw float64, conc int) {
	switch b {
	case datastore.Redis:
		return p.RedisRemoteLatencyS, p.RedisRemoteBWGBps, p.RedisRemoteConcurrency
	case datastore.Dragon:
		return p.DragonRemoteLatencyS,
			p.windowEff(p.DragonRemoteBWGBps, mb),
			p.DragonRemoteConcurrency
	case datastore.FileSystem:
		// Per-stream cost mirrors a Lustre read: client RPCs for
		// metadata plus OST streaming.
		lat := float64(p.LustreMetaOpsPerTransfer) *
			(p.LustreClientRPCS + p.LustreMDSServiceS)
		return lat, p.LustreStreamBWGBps, p.FSRemoteConcurrency
	}
	panic(fmt.Sprintf("costmodel: backend %v has no remote model (node-local cannot be read remotely)", b))
}

// nic returns the trainer's NIC resource for backend b: capacity is how
// many full-rate streams of this backend the NIC admits, enforcing the
// aggregate injection-bandwidth bound in many-to-one incast.
func (m *Model) nic(b datastore.Backend, perFlowBW float64) *des.Resource {
	if r := m.trainerNIC[b]; r != nil {
		return r
	}
	capacity := int(m.spec.NICGBps / perFlowBW)
	if capacity < 1 {
		capacity = 1
	}
	r := des.NewResource(m.env, capacity)
	m.trainerNIC[b] = r
	return r
}

// AnalyticLocal returns the closed-form expected duration of a local
// operation absent contention — used by tests to check that the DES
// reduces to the analytic model under no load, and by documentation.
func (m *Model) AnalyticLocal(b datastore.Backend, mb float64, read bool) float64 {
	c := m.params.LocalCost(b, mb, read)
	return float64(c.MetaOps)*(c.RPCS+c.MDSS) + c.HoldS
}
