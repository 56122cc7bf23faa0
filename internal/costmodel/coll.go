package costmodel

import (
	"simaibench/internal/cluster"
	"simaibench/internal/mpi"
)

// Collective-cost bridge: internal/mpi's algorithm cost models are
// deliberately topology-blind — they price steps through an abstract
// LinkCost — and cluster.Topology is deliberately algorithm-blind.
// This file joins them: a rank→node placement plus a dragonfly
// topology become the LinkCost and rank→router layout the mpi layer
// needs, for an algorithm the caller names. The gradsync scenario
// family derives every AllReduce's DES cost here.

// TopologyLink adapts a dragonfly topology and a rank→node placement
// (nil = rank i on node i) to the mpi cost layer's LinkCost: the
// modeled seconds to move mb megabytes between two ranks' nodes under
// the resolved hop class.
func TopologyLink(topo cluster.Topology, rankNode []int) mpi.LinkCost {
	node := func(r int) int {
		if rankNode == nil {
			return r
		}
		return rankNode[r]
	}
	return func(a, b int, mb float64) float64 {
		return topo.TransferS(node(a), node(b), mb)
	}
}

// RankRouters maps each of n ranks to its dragonfly router under a
// rank→node placement (nil = rank i on node i) — the grouping the
// hierarchical algorithm reduces within.
func RankRouters(topo cluster.Topology, n int, rankNode []int) []int {
	routerOf := make([]int, n)
	for r := range routerOf {
		node := r
		if rankNode != nil {
			node = rankNode[r]
		}
		routerOf[r] = topo.Router(node)
	}
	return routerOf
}

// CollAllReduceCost prices one n-rank AllReduce of mb megabytes under
// an explicit algorithm over the topology (rankNode nil = rank i on
// node i): the per-step DES cost profile the gradsync harness charges
// per training step.
func CollAllReduceCost(algo mpi.CollAlgo, topo cluster.Topology, n int, mb float64, rankNode []int) mpi.CollCost {
	return mpi.AllReduceCost(algo, n, mb,
		RankRouters(topo, n, rankNode), TopologyLink(topo, rankNode))
}
