package cluster

import (
	"math"
	"testing"
)

func TestAuroraTopologyShape(t *testing.T) {
	for _, tc := range []struct {
		nodes, groups int
	}{
		{1, 1}, {8, 1}, {32, 1}, {33, 2}, {64, 2}, {512, 16},
	} {
		topo := AuroraTopology(tc.nodes)
		if topo.Groups != tc.groups {
			t.Errorf("AuroraTopology(%d).Groups = %d, want %d", tc.nodes, topo.Groups, tc.groups)
		}
		if capacity := topo.Groups * topo.RoutersPerGroup * topo.NodesPerRouter; capacity < tc.nodes {
			t.Errorf("AuroraTopology(%d) capacity %d < node count", tc.nodes, capacity)
		}
	}
}

func TestTopologyHopResolution(t *testing.T) {
	topo := AuroraTopology(512) // 4 nodes/router, 8 routers/group
	cases := []struct {
		a, b int
		want HopClass
	}{
		{0, 0, HopLocal},   // same node
		{0, 3, HopLocal},   // same router
		{0, 4, HopGroup},   // next router, same group
		{0, 31, HopGroup},  // last node of group 0
		{0, 32, HopGlobal}, // first node of group 1
		{33, 500, HopGlobal},
		{100, 101, HopLocal}, // router 25 holds nodes 100..103
	}
	for _, tc := range cases {
		if got := topo.Hop(tc.a, tc.b); got != tc.want {
			t.Errorf("Hop(%d, %d) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
		if got := topo.Hop(tc.b, tc.a); got != tc.want {
			t.Errorf("Hop(%d, %d) = %s, want %s (asymmetric)", tc.b, tc.a, got, tc.want)
		}
	}
	if HopClass(99).String() != "unknown" {
		t.Error("out-of-range HopClass should stringify as unknown")
	}
}

func TestTopologyTransferCost(t *testing.T) {
	topo := AuroraTopology(64)
	if got := topo.TransferS(5, 5, 100); got != 0 {
		t.Fatalf("self-transfer costs %v, want 0", got)
	}
	// α+S/B per hop class: costs are strictly ordered local < group <
	// global at any size, and every class is latency + size/bandwidth.
	const mb = 8.0
	local := topo.TransferS(0, 1, mb)
	group := topo.TransferS(0, 4, mb)
	global := topo.TransferS(0, 40, mb)
	if !(local < group && group < global) {
		t.Fatalf("cost ordering violated: local %v, group %v, global %v", local, group, global)
	}
	want := topo.LocalLatencyS + mb/1000/topo.LocalBWGBps
	if math.Abs(local-want) > 1e-15 {
		t.Fatalf("local transfer = %v, want %v", local, want)
	}
	// Zero-size transfers still pay the hop latency.
	if got := topo.TransferS(0, 40, 0); got != topo.GlobalLatencyS {
		t.Fatalf("zero-size global transfer = %v, want latency %v", got, topo.GlobalLatencyS)
	}
}
