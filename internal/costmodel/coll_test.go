package costmodel

import (
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/mpi"
)

// TestCollAlgoCrossover pins the modeled crossover the gradsync
// scenario is built to show: at 512 ranks on the Aurora dragonfly the
// hierarchical AllReduce beats the ring at small messages (latency-
// bound: the ring pays 2(n-1) steps, the hierarchy keeps most steps
// router-local), and the ring wins at large messages (bandwidth-bound:
// its S/n segments beat the hierarchy's full-size up/down phases).
func TestCollAlgoCrossover(t *testing.T) {
	const ranks = 512
	topo := cluster.AuroraTopology(ranks)
	cost := func(algo mpi.CollAlgo, mb float64) float64 {
		return CollAllReduceCost(algo, topo, ranks, mb, nil).TimeS
	}
	for _, mb := range []float64{0.25, 4} {
		ring, hier := cost(mpi.AlgoRing, mb), cost(mpi.AlgoHier, mb)
		if hier >= ring {
			t.Errorf("at %g MB: hier %.6fs should beat ring %.6fs", mb, hier, ring)
		}
	}
	for _, mb := range []float64{64, 1024} {
		ring, hier := cost(mpi.AlgoRing, mb), cost(mpi.AlgoHier, mb)
		if ring >= hier {
			t.Errorf("at %g MB: ring %.6fs should beat hier %.6fs", mb, ring, hier)
		}
	}
	// The flat single-cost model is one step regardless of size.
	if c := CollAllReduceCost(mpi.AlgoFlat, topo, ranks, 4, nil); c.Steps != 1 {
		t.Errorf("flat steps = %d, want 1", c.Steps)
	}
}

// TestTopologyLinkPlacement: an explicit rank→node placement routes
// link costs through the placed nodes, not the rank indices.
func TestTopologyLinkPlacement(t *testing.T) {
	topo := cluster.AuroraTopology(64)
	// Ranks 0 and 1 placed on the same router's nodes vs across groups.
	same := TopologyLink(topo, []int{0, 1})(0, 1, 8)
	far := TopologyLink(topo, []int{0, 40})(0, 1, 8)
	if same >= far {
		t.Fatalf("same-router link %v should undercut cross-group link %v", same, far)
	}
	routers := RankRouters(topo, 3, []int{0, 3, 4})
	if routers[0] != routers[1] || routers[1] == routers[2] {
		t.Fatalf("RankRouters placement = %v, want [x x y]", routers)
	}
}
