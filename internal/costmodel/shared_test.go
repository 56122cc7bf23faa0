package costmodel

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
)

// sharedBurst starts k concurrent shared writes of mb MB on distinct
// nodes at t=0 and returns each op's completion latency.
func sharedBurst(env *des.Env, m *Model, b datastore.Backend, k int, mb float64) []float64 {
	lat := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		start := env.Now()
		x := m.NewSharedLocalWrite(b, i, mb, func() { lat = append(lat, env.Now()-start) })
		x.Start()
	}
	env.Run()
	return lat
}

func TestSharedNodeLocalBypassesQueue(t *testing.T) {
	// Node-local has no shared deployment: the shared op is exactly the
	// plain local op, at any burst width (distinct nodes).
	env, m := newModel(16)
	want := m.AnalyticLocal(datastore.NodeLocal, 8, false)
	for _, d := range sharedBurst(env, m, datastore.NodeLocal, 16, 8) {
		if math.Abs(d-want) > 1e-12 {
			t.Fatalf("node-local shared op = %v, want analytic %v (no queueing)", d, want)
		}
	}
	if w := m.SharedWaitS(datastore.NodeLocal); w != 0 {
		t.Fatalf("node-local shared wait = %v, want 0", w)
	}
}

func TestSharedRedisQueuesBeyondSlots(t *testing.T) {
	p := Default()
	env := des.NewEnv()
	m := New(env, cluster.Aurora(16), p)
	k := p.RedisSharedSlots * 4
	lat := sharedBurst(env, m, datastore.Redis, k, 8)
	if len(lat) != k {
		t.Fatalf("completed %d ops, want %d", len(lat), k)
	}
	// A burst 4x wider than the slot pool must show queueing: the
	// slowest op waits at least 3 service times longer than the fastest.
	minL, maxL := lat[0], lat[0]
	for _, d := range lat {
		minL = math.Min(minL, d)
		maxL = math.Max(maxL, d)
	}
	hold := m.sharedHold(datastore.Redis, 8, false)
	if maxL-minL < 3*hold*0.99 {
		t.Fatalf("burst spread = %v, want >= %v (3 queued service rounds)", maxL-minL, 3*hold)
	}
	if m.SharedWaitS(datastore.Redis) <= 0 {
		t.Fatal("redis shared wait not recorded")
	}
}

func TestSharedSingleOpAddsOnlyServiceTime(t *testing.T) {
	// One tenant, no contention: the shared op costs the plain local op
	// plus exactly one server-side service hold.
	for _, b := range []datastore.Backend{datastore.Redis, datastore.Dragon} {
		env, m := newModel(4)
		lat := sharedBurst(env, m, b, 1, 8)
		want := m.AnalyticLocal(b, 8, false) + m.sharedHold(b, 8, false)
		if math.Abs(lat[0]-want) > 1e-12 {
			t.Fatalf("%s single shared op = %v, want %v", b, lat[0], want)
		}
	}
}

func TestSharedFilesystemRoutesThroughMDS(t *testing.T) {
	// The filesystem's shared serialization point is the MDS the plain
	// transfer already queues on; SharedWaitS must surface its delay.
	env, m := newModel(16)
	lat := sharedBurst(env, m, datastore.FileSystem, 16, 8)
	if len(lat) != 16 {
		t.Fatalf("completed %d ops, want 16", len(lat))
	}
	if m.SharedWaitS(datastore.FileSystem) <= 0 {
		t.Fatal("MDS wait not surfaced for a 16-wide filesystem burst")
	}
}

func TestSharedSlotsFollowServerConfig(t *testing.T) {
	// The service-queue capacity comes from the ServerManager-level
	// deployment shape (datastore.ServerConfig.ServiceSlots), sized by
	// the params' instance counts.
	p := Default()
	p.RedisSharedSlots = 2
	env := des.NewEnv()
	m := New(env, cluster.Aurora(8), p)
	r := m.sharedService(datastore.Redis)
	if r == nil || r.Stats().Cap != 2 {
		t.Fatalf("redis service slots = %v, want capacity 2", r)
	}
	if m.sharedService(datastore.NodeLocal) != nil {
		t.Fatal("node-local must have no shared service queue")
	}
	if m.sharedService(datastore.FileSystem) != nil {
		t.Fatal("filesystem must use the MDS/OST model, not an extra queue")
	}
}

func TestSharedZeroParamsFallBackToDefaults(t *testing.T) {
	// A custom Params that only sets single-tenant constants must keep
	// the calibrated shared-deployment shape, not degrade to 1 slot.
	p := Default()
	p.RedisSharedSlots, p.RedisSharedServiceS, p.RedisSharedBWGBps = 0, 0, 0
	env := des.NewEnv()
	m := New(env, cluster.Aurora(8), p)
	d := Default()
	if r := m.sharedService(datastore.Redis); r == nil || r.Stats().Cap != d.RedisSharedSlots {
		t.Fatalf("redis slots with zero params = %v, want default %d", r, d.RedisSharedSlots)
	}
	if got, want := m.sharedHold(datastore.Redis, 8, false),
		d.RedisSharedServiceS+8.0/1000/d.RedisSharedBWGBps; got != want {
		t.Fatalf("redis hold with zero params = %v, want default-derived %v", got, want)
	}
}
