package mpi

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"simaibench/internal/clock"
)

// contribValue gives each (rank, element) pair a value whose floating-
// point sum is order-sensitive, so any algorithm that reduced in a
// different order than the flat rendezvous would produce different
// bits.
func contribValue(rank, i int) float64 {
	return 1.0/3.0*float64(rank+1) + float64(i)*1e-7 + math.Pi*float64(rank*i%7)
}

// collAlgos is every algorithm, flat first.
var collAlgos = []CollAlgo{AlgoFlat, AlgoRing, AlgoTree, AlgoHier}

// equivalenceLayout assigns ranks round-robin-free to routers of two
// ranks each, giving the hierarchical algorithm a multi-router,
// uneven-tail grouping at every tested world size.
func equivalenceLayout(n int) []int {
	routerOf := make([]int, n)
	for r := range routerOf {
		routerOf[r] = r / 2
	}
	return routerOf
}

// TestAllReduceAlgoEquivalence pins the bit-identity contract: every
// CollAlgo produces exactly the flat AllReduce's bits for ops
// {Sum, Max} across world sizes {2, 5, 8}, with and without a
// multi-router layout. Only the communication structure differs
// between algorithms — never a single result bit.
func TestAllReduceAlgoEquivalence(t *testing.T) {
	const elems = 9
	for _, n := range []int{2, 5, 8} {
		for _, op := range []Op{Sum, Max} {
			// Reference: the flat rendezvous combine.
			want := make([][]float64, n)
			{
				w := NewWorld(n)
				w.Run(func(c *Comm) {
					buf := make([]float64, elems)
					for i := range buf {
						buf[i] = contribValue(c.Rank(), i)
					}
					c.AllReduce(op, buf)
					want[c.Rank()] = buf
				})
			}
			for _, algo := range collAlgos {
				for _, layout := range [][]int{nil, equivalenceLayout(n)} {
					w := NewWorld(n)
					got := make([][]float64, n)
					routerOf := layout
					w.Run(func(c *Comm) {
						buf := make([]float64, elems)
						for i := range buf {
							buf[i] = contribValue(c.Rank(), i)
						}
						c.AllReduceAlgoOn(algo, op, buf, routerOf)
						got[c.Rank()] = buf
					})
					for r := 0; r < n; r++ {
						for i := range got[r] {
							if got[r][i] != want[r][i] {
								t.Fatalf("n=%d op=%s algo=%s layout=%v rank %d elem %d: got %x, want %x (bits differ)",
									n, op, algo, layout != nil, r, i, got[r][i], want[r][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAllReduceAlgoUnderClockBridge runs every algorithm with the
// world's waits bridged to a virtual clock's participant barrier and
// ranks entering the collective at skewed virtual times — the exact
// configuration workflow.Launch builds for Remote components. Under
// -race this also exercises the bridge's join/leave accounting against
// the p2p mailbox path the algorithms run on.
func TestAllReduceAlgoUnderClockBridge(t *testing.T) {
	const n, elems = 5, 4
	for _, algo := range collAlgos {
		v := clock.NewVirtual()
		w := NewWorld(n)
		w.SetClockBridge(v.Join, v.Leave)
		got := make([][]float64, n)
		routerOf := equivalenceLayout(n)
		w.Run(func(c *Comm) {
			v.Join()
			defer v.Leave()
			// Skew arrival: slower ranks drag virtual time while fast
			// ranks park inside the collective via the bridge.
			v.Sleep(time.Duration(c.Rank()+1) * 10 * time.Millisecond)
			buf := make([]float64, elems)
			for i := range buf {
				buf[i] = contribValue(c.Rank(), i)
			}
			c.AllReduceAlgoOn(algo, Sum, buf, routerOf)
			got[c.Rank()] = buf
		})
		for r := 1; r < n; r++ {
			for i := range got[r] {
				if got[r][i] != got[0][i] {
					t.Fatalf("algo=%s: rank %d disagrees with rank 0 under clock bridge", algo, r)
				}
			}
		}
	}
}

func TestParseCollAlgo(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CollAlgo
	}{
		{"", AlgoFlat}, {"flat", AlgoFlat}, {"ring", AlgoRing},
		{"tree", AlgoTree}, {"hier", AlgoHier}, {"hierarchical", AlgoHier},
	} {
		got, err := ParseCollAlgo(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCollAlgo(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseCollAlgo("butterfly"); err == nil {
		t.Error("ParseCollAlgo should reject unknown algorithms")
	}
	if CollAlgo(99).String() != "unknown" {
		t.Error("out-of-range CollAlgo should stringify as unknown")
	}
}

// TestCollCostShapes pins the analytic step counts and times of each
// cost model on a uniform link (α=1µs, B=10 GB/s), where the closed
// forms are exact.
func TestCollCostShapes(t *testing.T) {
	const alpha, bw = 1e-6, 10.0
	link := func(a, b int, mb float64) float64 {
		if a == b {
			return 0
		}
		return alpha + mb/1000/bw
	}
	const n, mb = 8, 16.0
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }

	flat := FlatAllReduceCost(n, mb, link)
	if flat.Steps != 1 || !approx(flat.TimeS, link(0, 1, mb)) {
		t.Errorf("flat cost = %+v", flat)
	}
	ring := RingAllReduceCost(n, mb, link)
	if ring.Steps != 2*(n-1) || !approx(ring.TimeS, float64(2*(n-1))*link(0, 1, mb/n)) {
		t.Errorf("ring cost = %+v", ring)
	}
	tree := TreeAllReduceCost(n, mb, link)
	if tree.Steps != 3 || !approx(tree.TimeS, 3*link(0, 1, mb)) {
		t.Errorf("tree cost = %+v", tree)
	}
	// Hierarchy on 4 routers of 2: up/down are 1 round each (m=2),
	// leader ring is 2·3 steps at mb/4.
	hier := HierAllReduceCost(n, mb, equivalenceLayout(n), link)
	wantHier := 2*link(0, 1, mb) + 6*link(0, 2, mb/4)
	if hier.Steps != 2+6 || !approx(hier.TimeS, wantHier) {
		t.Errorf("hier cost = %+v, want time %v", hier, wantHier)
	}
	// Single rank: every algorithm is free.
	for _, algo := range collAlgos {
		if c := AllReduceCost(algo, 1, mb, nil, link); c.Steps != 0 || c.TimeS != 0 {
			t.Errorf("%s cost at n=1 = %+v, want zero", algo, c)
		}
	}
}

// TestScatterValidatesBeforeRendezvous: a root passing a non-divisible
// length must fail at the call site, before depositing into the shared
// barrier — the world's unwind then names the scatter, not a confusing
// post-barrier panic on every rank.
func TestScatterValidatesBeforeRendezvous(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		msg := fmt.Sprint(p)
		if !strings.Contains(msg, "scatter root 0 data length 5 not divisible by world size 3") {
			t.Fatalf("panic = %q, want the named pre-deposit validation", msg)
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		c.Scatter(0, make([]float64, 5))
	})
}

// TestAllReduceLengthMismatchNamesRanks: mismatched contribution
// lengths must panic naming both ranks and lengths instead of reducing
// garbage or indexing out of bounds.
func TestAllReduceLengthMismatchNamesRanks(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		msg := fmt.Sprint(p)
		if !strings.Contains(msg, "allreduce length mismatch: rank 0 has 4 elements, rank 2 has 7") {
			t.Fatalf("panic = %q, want both ranks and lengths named", msg)
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		ln := 4
		if c.Rank() == 2 {
			ln = 7
		}
		c.AllReduce(Sum, make([]float64, ln))
	})
}

// TestBcastLengthMismatchPanics covers the broadcast variant of the
// explicit mismatch check (previously a silent truncation).
func TestBcastLengthMismatchPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(fmt.Sprint(p), "bcast length mismatch") {
			t.Fatalf("panic = %v, want bcast mismatch", p)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		c.Bcast(0, make([]float64, 3+c.Rank()))
	})
}

// TestScatterCopiesBeforeDeposit is the mutation-under-rendezvous
// regression test: root deposits its contribution and parks; a
// concurrent writer then scribbles over the caller's original slice
// before the remaining ranks arrive. Every rank's chunk must reflect
// the values at call time — the shared slot must hold a private copy,
// never an alias of the caller's buffer.
func TestScatterCopiesBeforeDeposit(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	data := []float64{0, 1, 2, 3, 4, 5}
	release := make(chan struct{})
	go func() {
		// Wait until root's contribution sits in the shared slot.
		for {
			w.coll.mu.Lock()
			arrived := w.coll.arrived
			w.coll.mu.Unlock()
			if arrived == 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		for i := range data {
			data[i] = -1
		}
		close(release)
	}()
	var mu sync.Mutex
	chunks := make([][]float64, n)
	w.Run(func(c *Comm) {
		var chunk []float64
		if c.Rank() == 0 {
			chunk = c.Scatter(0, data)
		} else {
			<-release // arrive only after the mutation landed
			chunk = c.Scatter(0, nil)
		}
		mu.Lock()
		chunks[c.Rank()] = chunk
		mu.Unlock()
	})
	for r := 0; r < n; r++ {
		for i, v := range chunks[r] {
			if want := float64(r*2 + i); v != want {
				t.Fatalf("rank %d chunk[%d] = %v, want %v (root's buffer was aliased in the rendezvous)",
					r, i, v, want)
			}
		}
	}
}
