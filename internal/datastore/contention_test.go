// Contention contract tests, in the external test package so they can
// drive the simulated contention model (internal/costmodel imports
// datastore, so the inline test package would cycle).
package datastore_test

import (
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/stats"
)

// stagedP50 simulates k concurrent clients, each on its own node,
// periodically staging 8 MB snapshots against one shared deployment of
// b for ~2 virtual seconds, and returns the p50 staging latency. Clients
// are phase-aligned, so every period is a k-wide burst into the shared
// service queue — the worst-case multi-tenant arrival pattern.
func stagedP50(k int, b datastore.Backend) float64 {
	const (
		sizeMB  = 8.0
		period  = 0.05
		horizon = 2.0
	)
	env := des.NewEnv()
	m := costmodel.New(env, cluster.Aurora(k), costmodel.Default())
	samples := make([]float64, 0, k*int(horizon/period))
	for i := 0; i < k; i++ {
		var (
			start    float64
			inFlight bool
			xfer     costmodel.Xfer
			wake     func()
		)
		// Open-loop cadence: the next wake is scheduled relative to this
		// one, not to op completion, so clients stay phase-aligned and
		// every period bursts k-wide. A wake that finds the previous op
		// still in flight skips its turn (a transfer must not be
		// re-entered), dropping that sample rather than corrupting it —
		// under the calibrated constants ops drain well within a period,
		// so nothing is actually dropped today.
		wake = func() {
			if env.Now()+period <= horizon {
				env.After(period, wake)
			}
			if inFlight {
				return
			}
			inFlight = true
			start = env.Now()
			xfer.Start()
		}
		xfer = m.NewSharedLocalWrite(b, i, sizeMB, func() {
			inFlight = false
			samples = append(samples, env.Now()-start)
		})
		env.At(0, wake)
	}
	env.RunUntil(horizon * 2)
	return stats.QuantileInPlace(samples, 0.5)
}

// TestContentionP50MonotoneByBackend is the multi-tenant contract, in
// eachBackend style: as concurrent clients on ONE shared deployment
// double, the p50 staging latency of every shared backend (Redis,
// Dragon, FileSystem) is monotonically non-decreasing — queueing can
// only add delay — while per-node NodeLocal stays exactly flat.
func TestContentionP50MonotoneByBackend(t *testing.T) {
	clients := []int{1, 2, 4, 8, 16}
	for _, b := range datastore.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			p50s := make([]float64, len(clients))
			for i, k := range clients {
				p50s[i] = stagedP50(k, b)
				if p50s[i] <= 0 {
					t.Fatalf("k=%d: no staging latency measured", k)
				}
			}
			if datastore.SharedDeployment(b) {
				for i := 1; i < len(p50s); i++ {
					if p50s[i] < p50s[i-1]*(1-1e-9) {
						t.Fatalf("p50 decreased under load: clients %v → p50 %v", clients, p50s)
					}
				}
				if p50s[len(p50s)-1] <= p50s[0]*(1+1e-9) {
					t.Fatalf("shared backend never queued: clients %v → p50 %v", clients, p50s)
				}
			} else {
				for i := 1; i < len(p50s); i++ {
					if p50s[i] != p50s[0] {
						t.Fatalf("node-local p50 not flat: clients %v → p50 %v", clients, p50s)
					}
				}
			}
		})
	}
}

func TestSharedDeploymentClassification(t *testing.T) {
	want := map[datastore.Backend]bool{
		datastore.Redis:      true,
		datastore.Dragon:     true,
		datastore.FileSystem: true,
		datastore.NodeLocal:  false,
	}
	for b, shared := range want {
		if datastore.SharedDeployment(b) != shared {
			t.Errorf("SharedDeployment(%v) = %v, want %v", b, !shared, shared)
		}
	}
}

func TestServiceSlots(t *testing.T) {
	cases := []struct {
		cfg  datastore.ServerConfig
		want int
	}{
		{datastore.ServerConfig{Backend: datastore.Redis}, 1},
		{datastore.ServerConfig{Backend: datastore.Redis, Instances: 4}, 4},
		{datastore.ServerConfig{Backend: datastore.Dragon, Instances: 8}, 8},
		{datastore.ServerConfig{Backend: datastore.FileSystem, Shards: 3}, 3},
		{datastore.ServerConfig{Backend: datastore.NodeLocal}, 1},
	}
	for _, c := range cases {
		if got := c.cfg.ServiceSlots(); got != c.want {
			t.Errorf("ServiceSlots(%+v) = %d, want %d", c.cfg, got, c.want)
		}
	}
}
