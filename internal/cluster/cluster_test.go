package cluster

import (
	"math"
	"testing"
)

func TestAuroraSpec(t *testing.T) {
	s := Aurora(512)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 512 || s.CPUsPerNode != 2 || s.GPUsPerNode != 6 || s.TilesPerGPU != 2 {
		t.Fatalf("spec = %+v", s)
	}
	if s.TilesPerNode() != 12 {
		t.Fatalf("tiles/node = %d, want 12", s.TilesPerNode())
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Nodes: 0, CPUsPerNode: 2, NICGBps: 25},
		{Nodes: 4, CPUsPerNode: 0, NICGBps: 25},
		{Nodes: 4, CPUsPerNode: 2, NICGBps: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("accepted bad spec %+v", s)
		}
	}
}

func TestPattern1PlacementSplitsTiles(t *testing.T) {
	s := Aurora(8)
	p := Pattern1Placement(s)
	if p.SimTilesPerNode != 6 || p.AITilesPerNode != 6 {
		t.Fatalf("placement = %+v, want 6+6", p)
	}
}

func TestCoScheduleDedicatedBlocks(t *testing.T) {
	// Enough nodes: every tenant gets a dedicated, disjoint block.
	s := Aurora(8)
	tenants, err := CoSchedule(s, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 4 {
		t.Fatalf("tenants = %d, want 4", len(tenants))
	}
	seen := map[int]bool{}
	for i, tn := range tenants {
		if tn.ID != i {
			t.Fatalf("tenant %d has ID %d", i, tn.ID)
		}
		if len(tn.Nodes) != 2 {
			t.Fatalf("tenant %d nodes = %v, want 2", i, tn.Nodes)
		}
		for _, n := range tn.Nodes {
			if n < 0 || n >= s.Nodes {
				t.Fatalf("tenant %d placed on node %d outside spec", i, n)
			}
			if seen[n] {
				t.Fatalf("node %d shared despite sufficient capacity", n)
			}
			seen[n] = true
		}
	}
	if got := Oversubscription(s, tenants); got != 1.0 {
		t.Fatalf("oversubscription = %v, want 1.0", got)
	}
	// Dedicated placement on an under-filled partition is still 1.0:
	// idle nodes don't dilute the metric.
	few, err := CoSchedule(Aurora(8), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := Oversubscription(Aurora(8), few); got != 1.0 {
		t.Fatalf("under-filled oversubscription = %v, want 1.0", got)
	}
}

func TestCoScheduleOversubscribed(t *testing.T) {
	// 6 tenants × 2 nodes on a 4-node partition: placement wraps and
	// nodes are shared, 3 tenant-nodes per physical node on average.
	s := Aurora(4)
	tenants, err := CoSchedule(s, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, tn := range tenants {
		for _, n := range tn.Nodes {
			if n < 0 || n >= s.Nodes {
				t.Fatalf("node %d outside spec", n)
			}
			counts[n]++
		}
	}
	for n := 0; n < s.Nodes; n++ {
		if counts[n] != 3 {
			t.Fatalf("node %d carries %d tenant placements, want 3 (round-robin balance)", n, counts[n])
		}
	}
	if got := Oversubscription(s, tenants); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("oversubscription = %v, want 3.0", got)
	}
}

func TestCoScheduleRejectsBadRequests(t *testing.T) {
	s := Aurora(4)
	if _, err := CoSchedule(s, 0, 2); err == nil {
		t.Error("accepted 0 tenants")
	}
	if _, err := CoSchedule(s, 2, 0); err == nil {
		t.Error("accepted 0 nodes per tenant")
	}
	if _, err := CoSchedule(Spec{}, 1, 1); err == nil {
		t.Error("accepted invalid spec")
	}
}

func TestNodeSetFailRestore(t *testing.T) {
	ns := NewNodeSet(Aurora(4))
	if ns.Nodes() != 4 || ns.UpCount() != 4 {
		t.Fatalf("fresh set: %d nodes, %d up", ns.Nodes(), ns.UpCount())
	}
	if !ns.Fail(2) {
		t.Fatal("Fail(2) on an up node returned false")
	}
	if ns.Fail(2) {
		t.Fatal("Fail(2) twice should be a no-op")
	}
	if ns.Up(2) || ns.UpCount() != 3 || ns.Fails() != 1 {
		t.Fatalf("after fail: up=%v upcount=%d fails=%d", ns.Up(2), ns.UpCount(), ns.Fails())
	}
	if !ns.Restore(2) {
		t.Fatal("Restore(2) on a down node returned false")
	}
	if ns.Restore(2) {
		t.Fatal("Restore(2) twice should be a no-op")
	}
	if !ns.Up(2) || ns.UpCount() != 4 || ns.Fails() != 1 {
		t.Fatalf("after restore: up=%v upcount=%d fails=%d", ns.Up(2), ns.UpCount(), ns.Fails())
	}
}

// TestNodeSetInterleavedAccounting drives a long deterministic
// fail/restore interleaving (including redundant transitions) against
// a naive reference model and checks Up/UpCount/Fails agree at every
// step — the accounting contract the scheduler's free-pool counter
// leans on.
func TestNodeSetInterleavedAccounting(t *testing.T) {
	const n = 5
	ns := NewNodeSet(Aurora(n))
	up := [n]bool{true, true, true, true, true}
	fails := 0
	// A fixed pseudo-random walk: step i toggles node (i*3)%n, failing
	// on even parity and restoring on odd, so the sequence hits
	// double-fails and double-restores naturally.
	for i := 0; i < 200; i++ {
		node := (i * 3) % n
		if i%2 == 0 {
			want := up[node]
			if got := ns.Fail(node); got != want {
				t.Fatalf("step %d: Fail(%d) = %v, want %v", i, node, got, want)
			}
			if want {
				up[node] = false
				fails++
			}
		} else {
			want := !up[node]
			if got := ns.Restore(node); got != want {
				t.Fatalf("step %d: Restore(%d) = %v, want %v", i, node, got, want)
			}
			if want {
				up[node] = true
			}
		}
		wantUp := 0
		for j, u := range up {
			if u != ns.Up(j) {
				t.Fatalf("step %d: node %d up=%v, model says %v", i, j, ns.Up(j), u)
			}
			if u {
				wantUp++
			}
		}
		if ns.UpCount() != wantUp || ns.Fails() != fails {
			t.Fatalf("step %d: upcount=%d fails=%d, model says %d/%d",
				i, ns.UpCount(), ns.Fails(), wantUp, fails)
		}
	}
}
