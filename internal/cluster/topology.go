package cluster

// This file models the interconnect the Spec's headline NIC numbers sit
// on: a Slingshot-class dragonfly. Spec carries per-node injection
// bandwidth and one fabric latency; Topology resolves *where the two
// endpoints sit* — same router, same group, or across a global optical
// link — so any node-pair transfer can be costed per hop class. The
// collective algorithm cost models (internal/mpi, bridged through
// internal/costmodel) are built on exactly this resolution: a ring
// AllReduce crossing groups every step and a hierarchical one that
// keeps most steps router-local price out very differently on the same
// Spec.

// HopClass classifies the dragonfly path between two nodes by the most
// expensive link it traverses.
type HopClass int

const (
	// HopLocal: both endpoints share a router — one switch traversal.
	HopLocal HopClass = iota
	// HopGroup: same dragonfly group, different routers — the group's
	// all-to-all local links add a switch hop.
	HopGroup
	// HopGlobal: different groups — the path crosses a global optical
	// link, the longest-latency, most-tapered class.
	HopGlobal
)

// String returns the hop class name.
func (h HopClass) String() string {
	switch h {
	case HopLocal:
		return "local"
	case HopGroup:
		return "group"
	case HopGlobal:
		return "global"
	}
	return "unknown"
}

// Topology is a dragonfly interconnect: Groups groups of
// RoutersPerGroup routers with NodesPerRouter nodes each, with one
// (bandwidth, latency) pair per hop class. Nodes are numbered densely:
// node i sits on router i/NodesPerRouter, group i/(NodesPerRouter×
// RoutersPerGroup). Bandwidths are per-transfer GB/s, latencies one-way
// seconds.
type Topology struct {
	Groups          int
	RoutersPerGroup int
	NodesPerRouter  int

	// LocalBWGBps / LocalLatencyS cost a same-router transfer.
	LocalBWGBps   float64
	LocalLatencyS float64
	// GroupBWGBps / GroupLatencyS cost an intra-group, inter-router
	// transfer.
	GroupBWGBps   float64
	GroupLatencyS float64
	// GlobalBWGBps / GlobalLatencyS cost an inter-group transfer over a
	// global link.
	GlobalBWGBps   float64
	GlobalLatencyS float64
}

// AuroraTopology returns the dragonfly Aurora(nodes) sits on: the
// paper's §4 Slingshot numbers (25 GB/s per-NIC injection, ~2 µs
// one-way fabric latency) resolved per hop class. Same-router hops see
// slightly under the quoted fabric latency (one switch traversal),
// intra-group hops slightly over (local-link hop added), and global
// hops pay the optical-link tax at half the injection bandwidth (the
// dragonfly's tapered global links). Groups is sized to hold the node
// count at 8 routers × 4 nodes per group (32 nodes per group), so
// multi-hundred-node jobs span many groups — the regime where
// collective-algorithm choice matters.
func AuroraTopology(nodes int) Topology {
	if nodes < 1 {
		nodes = 1
	}
	const perGroup = 8 * 4
	return Topology{
		Groups:          (nodes + perGroup - 1) / perGroup,
		RoutersPerGroup: 8,
		NodesPerRouter:  4,
		LocalBWGBps:     25,
		LocalLatencyS:   1.8e-6,
		GroupBWGBps:     25,
		GroupLatencyS:   2.4e-6,
		GlobalBWGBps:    12.5,
		GlobalLatencyS:  4.2e-6,
	}
}

// Router returns the global router index of a node.
func (t Topology) Router(node int) int { return node / t.NodesPerRouter }

// Group returns the group index of a node.
func (t Topology) Group(node int) int { return node / (t.NodesPerRouter * t.RoutersPerGroup) }

// Hop resolves the hop class between two nodes: same router, same
// group, or global. A node paired with itself resolves HopLocal (but
// see TransferS, which charges nothing for it).
func (t Topology) Hop(a, b int) HopClass {
	switch {
	case t.Router(a) == t.Router(b):
		return HopLocal
	case t.Group(a) == t.Group(b):
		return HopGroup
	}
	return HopGlobal
}

// LinkBWGBps returns the transfer bandwidth of a hop class.
func (t Topology) LinkBWGBps(h HopClass) float64 {
	switch h {
	case HopLocal:
		return t.LocalBWGBps
	case HopGroup:
		return t.GroupBWGBps
	}
	return t.GlobalBWGBps
}

// LinkLatencyS returns the one-way latency of a hop class.
func (t Topology) LinkLatencyS(h HopClass) float64 {
	switch h {
	case HopLocal:
		return t.LocalLatencyS
	case HopGroup:
		return t.GroupLatencyS
	}
	return t.GlobalLatencyS
}

// TransferS costs one mb-megabyte transfer from node a to node b under
// the α+S/B model of the resolved hop class: latency plus size over
// bandwidth. A node-to-itself transfer is free (no fabric involved).
func (t Topology) TransferS(a, b int, mb float64) float64 {
	if a == b {
		return 0
	}
	h := t.Hop(a, b)
	return t.LinkLatencyS(h) + mb/1000/t.LinkBWGBps(h)
}
