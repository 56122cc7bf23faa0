// Package cluster models the Aurora-like virtual machine room the
// simulated-scale experiments run on: node counts, CPU/GPU-tile
// inventory, memory hierarchy and interconnect headline numbers. The
// numbers come straight from the paper's §4 hardware description and are
// consumed by internal/costmodel to size resources and cache thresholds.
//
// Beyond the paper's single-workflow placement (Pattern1Placement), the
// package provides the multi-tenant co-scheduler (CoSchedule): N
// concurrent workflow instances placed round-robin onto a shared
// partition, the substrate of the scale-out scenario family.
package cluster

import "fmt"

// Spec describes a homogeneous cluster partition.
type Spec struct {
	// Nodes is the number of compute nodes in the job.
	Nodes int
	// CPUsPerNode: Aurora nodes have 2 Intel Xeon Max sockets.
	CPUsPerNode int
	// GPUsPerNode: 6 Intel Data Center GPU Max 1550 per node.
	GPUsPerNode int
	// TilesPerGPU: each GPU exposes 2 tiles/stacks; workflow components
	// are placed per tile (12 per node).
	TilesPerGPU int
	// L3CacheMBPerCPU: 105 MB per Xeon Max — the paper derives its 8
	// MB-per-process cache share from this.
	L3CacheMBPerCPU float64
	// DDRGBPerCPU / HBMGBPerCPU: 512 GB DDR5 + 64 GB HBM per socket.
	DDRGBPerCPU float64
	HBMGBPerCPU float64
	// NICGBps is per-node injection bandwidth into the interconnect
	// (Slingshot-class, ~25 GB/s per NIC pair usable).
	NICGBps float64
	// NICLatencyUS is the one-way fabric latency in microseconds.
	NICLatencyUS float64
}

// Aurora returns the paper's testbed scaled to the given node count.
func Aurora(nodes int) Spec {
	return Spec{
		Nodes:           nodes,
		CPUsPerNode:     2,
		GPUsPerNode:     6,
		TilesPerGPU:     2,
		L3CacheMBPerCPU: 105,
		DDRGBPerCPU:     512,
		HBMGBPerCPU:     64,
		NICGBps:         25,
		NICLatencyUS:    2,
	}
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 1:
		return fmt.Errorf("cluster: %d nodes", s.Nodes)
	case s.CPUsPerNode < 1 || s.GPUsPerNode < 0 || s.TilesPerGPU < 0:
		return fmt.Errorf("cluster: bad per-node inventory %+v", s)
	case s.NICGBps <= 0:
		return fmt.Errorf("cluster: NIC bandwidth %v", s.NICGBps)
	}
	return nil
}

// TilesPerNode returns the GPU tile count per node (12 on Aurora).
func (s Spec) TilesPerNode() int { return s.GPUsPerNode * s.TilesPerGPU }

// Placement describes how a co-located pattern splits a node's tiles
// between the simulation and AI components (6 + 6 in the paper).
type Placement struct {
	SimTilesPerNode int
	AITilesPerNode  int
}

// Pattern1Placement is the paper's one-to-one split: half the tiles to
// the simulation, half to the trainer.
func Pattern1Placement(s Spec) Placement {
	half := s.TilesPerNode() / 2
	return Placement{SimTilesPerNode: half, AITilesPerNode: half}
}

// Tenant is one co-scheduled workflow instance in a multi-tenant
// partition: a stable id plus the node indices its components run on.
type Tenant struct {
	// ID numbers tenants 0..n-1 in scheduling order.
	ID int
	// Nodes are the spec node indices this tenant's ranks are placed on.
	Nodes []int
}

// CoSchedule places n concurrent workflow instances, each requesting
// nodesPer nodes, onto the partition's nodes in round-robin order. When
// the partition has at least n×nodesPer nodes every tenant receives a
// dedicated block (the scale-out case: compute is dedicated, only the
// datastore deployment is shared); with fewer nodes the assignment wraps
// and tenants share nodes (oversubscription), which also contends on the
// per-node exchange buses of the cost model.
func CoSchedule(s Spec, n, nodesPer int) ([]Tenant, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 1 || nodesPer < 1 {
		return nil, fmt.Errorf("cluster: co-schedule %d tenants × %d nodes", n, nodesPer)
	}
	tenants := make([]Tenant, n)
	next := 0
	for i := range tenants {
		nodes := make([]int, nodesPer)
		for j := range nodes {
			nodes[j] = next % s.Nodes
			next++
		}
		tenants[i] = Tenant{ID: i, Nodes: nodes}
	}
	return tenants, nil
}

// Block is a contiguous range of a partition's node indices assigned to
// one logical process of a share-nothing run (des.LPSet): the
// node-block granularity of LP partitioning.
type Block struct {
	// Start is the first global node index of the block.
	Start int
	// Nodes is the number of nodes in the block.
	Nodes int
}

// LPBlocks partitions nodes into contiguous blocks of blockNodes each
// (the final block takes any remainder) — the block→LP mapping of the
// gradsync harness. The mapping is a pure function of (nodes,
// blockNodes), deliberately independent of worker count: the canonical
// merge order of the per-LP sample logs — and therefore every bit of
// the run's metrics — depends only on the partition, so results cannot
// vary with how many cores executed it.
func LPBlocks(nodes, blockNodes int) []Block {
	if nodes < 1 {
		return nil
	}
	if blockNodes < 1 {
		blockNodes = 1
	}
	blocks := make([]Block, 0, (nodes+blockNodes-1)/blockNodes)
	for start := 0; start < nodes; start += blockNodes {
		n := blockNodes
		if start+n > nodes {
			n = nodes - start
		}
		blocks = append(blocks, Block{Start: start, Nodes: n})
	}
	return blocks
}

// NodeSet tracks the up/down availability of a partition's nodes — the
// cluster-side state of the fault-injection layer (internal/faults).
// The zero value is unusable; construct with NewNodeSet, which starts
// every node up. NodeSet is not safe for concurrent use: like the rest
// of the simulated-scale state it is mutated only from the single
// scheduler goroutine of a des.Env.
type NodeSet struct {
	up  []bool
	nUp int
	// fails counts Fail transitions, the cluster-level crash tally the
	// resilience reports use.
	fails int
}

// NewNodeSet returns the availability state for spec, all nodes up.
func NewNodeSet(s Spec) *NodeSet {
	ns := &NodeSet{up: make([]bool, s.Nodes), nUp: s.Nodes}
	for i := range ns.up {
		ns.up[i] = true
	}
	return ns
}

// Nodes returns the partition size.
func (ns *NodeSet) Nodes() int { return len(ns.up) }

// Up reports whether node is currently available.
func (ns *NodeSet) Up(node int) bool { return ns.up[node] }

// UpCount reports how many nodes are currently available.
func (ns *NodeSet) UpCount() int { return ns.nUp }

// Fails reports the number of Fail transitions so far.
func (ns *NodeSet) Fails() int { return ns.fails }

// Fail marks node down, reporting whether it was up (failing a node
// twice is a no-op, matching fail-stop semantics: a crashed node cannot
// crash again until restored).
func (ns *NodeSet) Fail(node int) bool {
	if !ns.up[node] {
		return false
	}
	ns.up[node] = false
	ns.nUp--
	ns.fails++
	return true
}

// Restore marks node up again after repair, reporting whether it was
// down.
func (ns *NodeSet) Restore(node int) bool {
	if ns.up[node] {
		return false
	}
	ns.up[node] = true
	ns.nUp++
	return true
}

// Oversubscription reports the mean number of tenant placements per
// *occupied* physical node: exactly 1.0 when every tenant has dedicated
// nodes (regardless of how much of the partition is idle), above 1 when
// CoSchedule wrapped and tenants share nodes.
func Oversubscription(s Spec, tenants []Tenant) float64 {
	placements := 0
	occupied := map[int]bool{}
	for _, t := range tenants {
		placements += len(t.Nodes)
		for _, n := range t.Nodes {
			occupied[n] = true
		}
	}
	if len(occupied) == 0 {
		return 0
	}
	return float64(placements) / float64(len(occupied))
}
