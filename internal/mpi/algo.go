package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Algorithmic collectives: the flat rendezvous of coll.go models a
// collective as one synchronization with a single cost, which is blind
// to the question the gradsync scenario family asks — when does the
// *algorithm* (ring vs recursive doubling vs hierarchical) dominate a
// data-parallel training step? This file adds both halves of the
// answer:
//
//   - Cost models: Ring/Tree/Hier/FlatAllReduceCost compute the
//     per-step DES cost profile of each algorithm from message size ×
//     a caller-supplied LinkCost (internal/costmodel bridges a
//     cluster.Topology into one), plus the ReduceScatter/AllGather
//     building blocks ring AllReduce composes from.
//   - Data plane: AllReduceAlgo executes the algorithm's real
//     communication structure over the point-to-point layer (so clock
//     bridging and kill-teardown come for free), while applying the
//     reduction itself locally in canonical rank order 0..n-1. Every
//     algorithm therefore produces bits identical to the flat
//     AllReduce — algorithms shape *communication*, never the result.
//
// The bit-identity trick: each algorithm's message pattern moves
// per-rank contribution *sets* (ring shift, Bruck doubling, or
// hierarchical gather/ring/bcast) until every rank holds all n
// contributions, then reduceContribs folds them in rank order —
// exactly the order the flat rendezvous combine uses. Floating-point
// reduction order is thus invariant across algorithms, which the
// equivalence suite in algo_test.go pins.

// CollAlgo selects the collective algorithm of AllReduceAlgo and the
// cost models. The zero value is AlgoFlat — the legacy single-cost
// rendezvous — so an unset param preserves pre-existing behavior.
type CollAlgo int

const (
	// AlgoFlat is the single shared-memory rendezvous of coll.go,
	// costed as one step over the slowest link to rank 0.
	AlgoFlat CollAlgo = iota
	// AlgoRing is the bandwidth-optimal ring: reduce-scatter then
	// all-gather, 2(n-1) steps of size S/n.
	AlgoRing
	// AlgoTree is recursive doubling (Bruck-style at non-powers of
	// two): ceil(log2 n) full-size exchange rounds.
	AlgoTree
	// AlgoHier is the topology-aware hierarchy: reduce within each
	// router, reduce across each group's routers, ring across group
	// leaders, then broadcast back down.
	AlgoHier
)

// String returns the algorithm's flag spelling.
func (a CollAlgo) String() string {
	switch a {
	case AlgoFlat:
		return "flat"
	case AlgoRing:
		return "ring"
	case AlgoTree:
		return "tree"
	case AlgoHier:
		return "hier"
	}
	return "unknown"
}

// ParseCollAlgo parses a -collalgo flag value. The empty string is
// AlgoFlat, the default-preserving choice.
func ParseCollAlgo(s string) (CollAlgo, error) {
	switch s {
	case "", "flat":
		return AlgoFlat, nil
	case "ring":
		return AlgoRing, nil
	case "tree":
		return AlgoTree, nil
	case "hier", "hierarchical":
		return AlgoHier, nil
	}
	return 0, fmt.Errorf("mpi: unknown collective algorithm %q (valid: flat, ring, tree, hier)", s)
}

// LinkCost models the seconds one transfer of mb megabytes takes
// between ranks a and b. internal/costmodel adapts a cluster.Topology
// and a rank→node placement into one; a==b transfers should cost 0.
type LinkCost func(a, b int, mb float64) float64

// CollCost is the modeled execution profile of one collective: how
// many synchronized communication steps it takes and their total
// modeled time (each step bounded by its slowest link).
type CollCost struct {
	// Steps counts the algorithm's synchronized communication rounds.
	Steps int
	// TimeS is the summed per-step maxima in seconds.
	TimeS float64
}

// FlatAllReduceCost costs the legacy single-rendezvous AllReduce: one
// step in which every rank exchanges its full vector through a
// rendezvous point (rank 0), bounded by the slowest such link. This is
// the pre-algorithm behavior every default-config scenario keeps.
func FlatAllReduceCost(n int, mb float64, link LinkCost) CollCost {
	if n <= 1 {
		return CollCost{}
	}
	worst := 0.0
	for r := 1; r < n; r++ {
		if c := link(0, r, mb); c > worst {
			worst = c
		}
	}
	return CollCost{Steps: 1, TimeS: worst}
}

// RingReduceScatterCost costs the ring reduce-scatter building block:
// n-1 steps, each shifting an S/n segment to the next rank, every step
// bounded by the slowest ring link.
func RingReduceScatterCost(n int, mb float64, link LinkCost) CollCost {
	if n <= 1 {
		return CollCost{}
	}
	per := 0.0
	for r := 0; r < n; r++ {
		if c := link(r, (r+1)%n, mb/float64(n)); c > per {
			per = c
		}
	}
	return CollCost{Steps: n - 1, TimeS: float64(n-1) * per}
}

// RingAllGatherCost costs the ring all-gather building block — the
// same n-1 S/n-segment shifts as the reduce-scatter phase.
func RingAllGatherCost(n int, mb float64, link LinkCost) CollCost {
	return RingReduceScatterCost(n, mb, link)
}

// RingAllReduceCost composes reduce-scatter + all-gather: 2(n-1) steps
// of size S/n. Bandwidth-optimal (each byte crosses each link ~2×),
// but the step count scales linearly with ranks — the latency term
// that loses to the hierarchy at small messages and high rank counts.
func RingAllReduceCost(n int, mb float64, link LinkCost) CollCost {
	rs := RingReduceScatterCost(n, mb, link)
	ag := RingAllGatherCost(n, mb, link)
	return CollCost{Steps: rs.Steps + ag.Steps, TimeS: rs.TimeS + ag.TimeS}
}

// TreeAllReduceCost costs recursive doubling: ceil(log2 n) rounds of
// full-size exchange with the partner at distance 2^k (modular, the
// Bruck generalization for non-powers of two), each round bounded by
// its slowest pair. Latency-optimal step count, but every round moves
// the full vector — the bandwidth term that loses at large messages.
func TreeAllReduceCost(n int, mb float64, link LinkCost) CollCost {
	if n <= 1 {
		return CollCost{}
	}
	total := 0.0
	steps := 0
	for dist := 1; dist < n; dist *= 2 {
		worst := 0.0
		for r := 0; r < n; r++ {
			if c := link(r, (r+dist)%n, mb); c > worst {
				worst = c
			}
		}
		total += worst
		steps++
	}
	return CollCost{Steps: steps, TimeS: total}
}

// HierAllReduceCost costs the topology-aware hierarchy over a rank→
// router grouping (nil routerOf = everyone on one router): a
// ceil(log2 m) binary reduce within each router, a ring across the L
// router leaders at S/L segments, and the mirror-image broadcast back
// down. Most steps traverse only local links and the leader ring moves
// 1/L of the bytes, which is why it wins at small messages and high
// rank counts; the up/down phases move the full vector, which is why
// the plain ring wins it back at large messages.
func HierAllReduceCost(n int, mb float64, routerOf []int, link LinkCost) CollCost {
	if n <= 1 {
		return CollCost{}
	}
	members, leaders := routerPartition(n, routerOf)
	var cost CollCost
	// Up/down within routers: ceil(log2 m) rounds each way, every
	// round bounded by the slowest member↔leader link.
	mmax, localWorst := 0, 0.0
	for _, ms := range members {
		if len(ms) > mmax {
			mmax = len(ms)
		}
		for _, m := range ms[1:] {
			if c := link(m, ms[0], mb); c > localWorst {
				localWorst = c
			}
		}
	}
	for span := 1; span < mmax; span *= 2 {
		cost.Steps += 2
		cost.TimeS += 2 * localWorst
	}
	// Ring across router leaders at S/L segments, both directions.
	if l := len(leaders); l > 1 {
		per := 0.0
		for i, r := range leaders {
			if c := link(r, leaders[(i+1)%l], mb/float64(l)); c > per {
				per = c
			}
		}
		cost.Steps += 2 * (l - 1)
		cost.TimeS += 2 * float64(l-1) * per
	}
	return cost
}

// AllReduceCost dispatches to the algorithm's cost model. routerOf is
// only consulted by AlgoHier.
func AllReduceCost(algo CollAlgo, n int, mb float64, routerOf []int, link LinkCost) CollCost {
	switch algo {
	case AlgoFlat:
		return FlatAllReduceCost(n, mb, link)
	case AlgoRing:
		return RingAllReduceCost(n, mb, link)
	case AlgoTree:
		return TreeAllReduceCost(n, mb, link)
	case AlgoHier:
		return HierAllReduceCost(n, mb, routerOf, link)
	}
	panic(fmt.Sprintf("mpi: unknown collective algorithm %d", algo))
}

// routerPartition groups ranks by router id (nil routerOf = one
// router). members holds each router's ranks ascending (so members[i][0]
// is that router's leader); leaders lists every leader rank ascending —
// the deterministic ring order of the hierarchical algorithm.
func routerPartition(n int, routerOf []int) (members [][]int, leaders []int) {
	if routerOf == nil {
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		return [][]int{all}, []int{0}
	}
	if len(routerOf) != n {
		panic(fmt.Sprintf("mpi: router layout has %d entries for %d ranks", len(routerOf), n))
	}
	byRouter := map[int][]int{}
	for r := 0; r < n; r++ {
		byRouter[routerOf[r]] = append(byRouter[routerOf[r]], r)
	}
	for _, ms := range byRouter {
		members = append(members, ms)
		leaders = append(leaders, ms[0])
	}
	sort.Ints(leaders)
	sort.Slice(members, func(i, j int) bool { return members[i][0] < members[j][0] })
	return members, leaders
}

// Reserved point-to-point tag space of the algorithmic collectives,
// far above any user tag. Matching within a collective rides MPI's
// non-overtaking rule: repeated collectives may reuse a (src, tag)
// pair because each rank consumes its messages in FIFO order.
const (
	algoTagRing     = 1 << 28
	algoTagBruck    = 1<<28 + 1<<20
	algoTagHierUp   = 1<<28 + 2<<20
	algoTagHierRing = 1<<28 + 3<<20
	algoTagHierDown = 1<<28 + 4<<20
)

// AllReduceAlgo reduces buf across all ranks like AllReduce, but moves
// the data over the selected algorithm's real point-to-point structure
// (rank r on router r of a single-router world; use AllReduceAlgoOn
// for an explicit layout). Results are bit-identical to AllReduce for
// every algorithm: the reduction is applied locally in rank order.
func (c *Comm) AllReduceAlgo(algo CollAlgo, op Op, buf []float64) {
	c.AllReduceAlgoOn(algo, op, buf, nil)
}

// AllReduceAlgoOn is AllReduceAlgo with an explicit rank→router layout
// for the hierarchical algorithm (nil = one router; ring and tree
// ignore it). All ranks must pass the same algorithm and layout —
// share one slice, it is only read.
func (c *Comm) AllReduceAlgoOn(algo CollAlgo, op Op, buf []float64, routerOf []int) {
	if algo == AlgoFlat || c.world.size == 1 {
		c.AllReduce(op, buf)
		return
	}
	reduceContribs(op, c.gatherContribs(algo, buf, routerOf), buf)
}

// gatherContribs runs the algorithm's communication pattern until this
// rank holds every rank's contribution, indexed by source rank.
func (c *Comm) gatherContribs(algo CollAlgo, buf []float64, routerOf []int) [][]float64 {
	switch algo {
	case AlgoRing:
		return c.ringContribs(buf)
	case AlgoTree:
		return c.bruckContribs(buf)
	case AlgoHier:
		return c.hierContribs(buf, routerOf)
	}
	panic(fmt.Sprintf("mpi: unknown collective algorithm %d", algo))
}

// reduceContribs folds the n contributions into buf in canonical rank
// order 0..n-1 — the exact accumulation order of the flat rendezvous
// combine, so every algorithm's result is bit-identical to AllReduce's.
// Mismatched contribution lengths panic naming both ranks.
func reduceContribs(op Op, contribs [][]float64, buf []float64) {
	for r, xs := range contribs {
		if len(xs) != len(contribs[0]) {
			panic(fmt.Sprintf("mpi: allreduce length mismatch: rank 0 has %d elements, rank %d has %d",
				len(contribs[0]), r, len(xs)))
		}
	}
	acc := make([]float64, len(contribs[0]))
	copy(acc, contribs[0])
	for r := 1; r < len(contribs); r++ {
		xs := contribs[r]
		for i := range acc {
			acc[i] = op.apply(acc[i], xs[i])
		}
	}
	copy(buf, acc)
}

// ringContribs circulates contributions around the rank ring: at step
// s each rank forwards the contribution of rank (r-s) mod n — its own
// at step 0, thereafter the one it just received — so after n-1 steps
// every rank holds all n.
func (c *Comm) ringContribs(buf []float64) [][]float64 {
	n, r := c.world.size, c.rank
	contribs := make([][]float64, n)
	own := make([]float64, len(buf))
	copy(own, buf)
	contribs[r] = own
	right, left := (r+1)%n, (r-1+n)%n
	for s := 0; s < n-1; s++ {
		c.SendFloat64s(right, algoTagRing+s, contribs[((r-s)%n+n)%n])
		data, _ := c.RecvFloat64s(left, algoTagRing+s)
		contribs[((left-s)%n+n)%n] = data
	}
	return contribs
}

// bruckContribs doubles the held contribution set each round: rank r
// sends everything it holds to (r-2^k) mod n and receives from
// (r+2^k) mod n, so after round k it holds contributions r..r+2^(k+1)-1
// (mod n) — all n after ceil(log2 n) rounds, powers of two or not.
func (c *Comm) bruckContribs(buf []float64) [][]float64 {
	n, r := c.world.size, c.rank
	contribs := make([][]float64, n)
	own := make([]float64, len(buf))
	copy(own, buf)
	contribs[r] = own
	for s, dist := 0, 1; dist < n; s, dist = s+1, dist*2 {
		c.Send(((r-dist)%n+n)%n, algoTagBruck+s, encodeContribs(contribs))
		data, _ := c.Recv((r+dist)%n, algoTagBruck+s)
		mergeContribs(contribs, data)
	}
	return contribs
}

// hierContribs runs the hierarchy's data plane over a rank→router
// layout (nil = one router): members ship their contribution to their
// router's leader (lowest member rank), leaders circulate router sets
// around the leader ring, then each leader broadcasts the complete set
// back to its members.
func (c *Comm) hierContribs(buf []float64, routerOf []int) [][]float64 {
	n, r := c.world.size, c.rank
	members, leaders := routerPartition(n, routerOf)
	var mine []int
	for _, ms := range members {
		for _, m := range ms {
			if m == r {
				mine = ms
				break
			}
		}
	}
	contribs := make([][]float64, n)
	own := make([]float64, len(buf))
	copy(own, buf)
	contribs[r] = own
	leader := mine[0]
	if r != leader {
		c.SendFloat64s(leader, algoTagHierUp, own)
		data, _ := c.Recv(leader, algoTagHierDown)
		mergeContribs(contribs, data)
		return contribs
	}
	// Leader: gather members in ascending rank order (deterministic).
	for _, m := range mine[1:] {
		vec, _ := c.RecvFloat64s(m, algoTagHierUp)
		contribs[m] = vec
	}
	// Circulate router sets around the leader ring: forward at step s
	// the set received at step s-1 (initially this router's own).
	if l := len(leaders); l > 1 {
		li := sort.SearchInts(leaders, r)
		rightL, leftL := leaders[(li+1)%l], leaders[(li-1+l)%l]
		cur := make([][]float64, n)
		for _, m := range mine {
			cur[m] = contribs[m]
		}
		for s := 0; s < l-1; s++ {
			c.Send(rightL, algoTagHierRing+s, encodeContribs(cur))
			data, _ := c.Recv(leftL, algoTagHierRing+s)
			next := make([][]float64, n)
			mergeContribs(next, data)
			mergeContribs(contribs, data)
			cur = next
		}
	}
	// Broadcast the complete set down to this router's members.
	if len(mine) > 1 {
		payload := encodeContribs(contribs)
		for _, m := range mine[1:] {
			c.Send(m, algoTagHierDown, payload)
		}
	}
	return contribs
}

// encodeContribs serializes the non-nil entries of a contribution set
// as (count, then per entry: rank, length, little-endian values).
func encodeContribs(contribs [][]float64) []byte {
	count, words := 0, 1
	for _, xs := range contribs {
		if xs != nil {
			count++
			words += 2 + len(xs)
		}
	}
	b := make([]byte, 0, 8*words)
	b = binary.LittleEndian.AppendUint64(b, uint64(count))
	for r, xs := range contribs {
		if xs == nil {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(r))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(xs)))
		b = append(b, encodeFloat64s(xs)...)
	}
	return b
}

// mergeContribs decodes an encoded contribution set into contribs,
// keeping existing entries (duplicates arrive in the Bruck rounds).
func mergeContribs(contribs [][]float64, data []byte) {
	count := binary.LittleEndian.Uint64(data)
	off := 8
	for i := uint64(0); i < count; i++ {
		r := int(binary.LittleEndian.Uint64(data[off:]))
		ln := int(binary.LittleEndian.Uint64(data[off+8:]))
		off += 16
		if contribs[r] == nil {
			contribs[r] = decodeFloat64s(data[off : off+8*ln])
		}
		off += 8 * ln
	}
}
