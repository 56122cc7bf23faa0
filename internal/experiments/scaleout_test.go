package experiments

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/datastore"
	"simaibench/internal/scenario"
	"simaibench/internal/sweep"
)

// Multi-tenant invariants the scale-out family must hold: shared
// backends degrade monotonically with tenant count, node-local does not,
// and the sweep is bit-deterministic at any worker count.

func scaleOutPoint(t *testing.T, b datastore.Backend, tenants int) ScaleOutPoint {
	t.Helper()
	return checked(t, RunScaleOutChecked, ScaleOutConfig{
		Tenants: tenants, Backend: b, SizeMB: 8, TrainIters: 120,
	})
}

// TestScaleOutBlocksAreCoSchedule: the harness walks nodes 0..N-1 and
// calls tenant i the block starting at i·NodesPerTenant. That is the
// placement cluster.CoSchedule makes on a partition sized tenants ×
// nodes-per-tenant, which is how the family is described.
func TestScaleOutBlocksAreCoSchedule(t *testing.T) {
	const tenants, nodesPer = 5, 3
	placed, err := cluster.CoSchedule(cluster.Aurora(tenants*nodesPer), tenants, nodesPer)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, tn := range placed {
		for _, node := range tn.Nodes {
			if node != next {
				t.Fatalf("tenant %d holds node %d where the harness's node walk has %d", i, node, next)
			}
			next++
		}
	}
}

func TestScaleOutNodeLocalIsFlat(t *testing.T) {
	base := scaleOutPoint(t, datastore.NodeLocal, 1)
	for _, n := range []int{2, 8, 16} {
		pt := scaleOutPoint(t, datastore.NodeLocal, n)
		// Welford accumulation order differs with rank count, so allow
		// float noise but nothing a contention effect could hide in.
		if math.Abs(pt.StageMeanS-base.StageMeanS) > base.StageMeanS*1e-9 {
			t.Errorf("node-local mean stage at %d tenants = %v, want flat %v", n, pt.StageMeanS, base.StageMeanS)
		}
		if pt.SharedWaitS != 0 {
			t.Errorf("node-local shared wait = %v, want 0", pt.SharedWaitS)
		}
	}
}

func TestScaleOutSharedBackendsDegradeMonotonically(t *testing.T) {
	for _, b := range []datastore.Backend{datastore.Redis, datastore.Dragon, datastore.FileSystem} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			prev := -1.0
			degraded := false
			for _, n := range []int{1, 4, 16} {
				pt := scaleOutPoint(t, b, n)
				if pt.Writes == 0 {
					t.Fatalf("%d tenants completed no writes", n)
				}
				if pt.StageMeanS < prev {
					t.Errorf("mean stage latency decreased with load: %v tenants %v < %v", n, pt.StageMeanS, prev)
				}
				if prev > 0 && pt.StageMeanS > prev*1.01 {
					degraded = true
				}
				prev = pt.StageMeanS
			}
			if !degraded {
				t.Errorf("%s never degraded across 1→16 tenants: contention model inert", b)
			}
		})
	}
}

func TestScaleOutAggregateThroughputScalesForNodeLocal(t *testing.T) {
	one := scaleOutPoint(t, datastore.NodeLocal, 1)
	eight := scaleOutPoint(t, datastore.NodeLocal, 8)
	if eight.AggGBps < one.AggGBps*7.5 {
		t.Errorf("node-local aggregate = %v at 8 tenants vs %v at 1: want ~8x linear scaling",
			eight.AggGBps, one.AggGBps)
	}
	// Redis saturates: aggregate at 16 tenants must fall well short of
	// 16x the single-tenant aggregate.
	rOne := scaleOutPoint(t, datastore.Redis, 1)
	rSixteen := scaleOutPoint(t, datastore.Redis, 16)
	if rSixteen.AggGBps > rOne.AggGBps*12 {
		t.Errorf("redis aggregate = %v at 16 tenants vs %v at 1: collapse missing",
			rSixteen.AggGBps, rOne.AggGBps)
	}
}

func TestScaleOutSweepDeterministicAcrossWorkers(t *testing.T) {
	old := sweep.Workers
	defer func() { sweep.Workers = old }()
	grid := func() []ScaleOutPoint {
		points, fails, err := scaleOutGrid(bg, scenario.Params{SweepIters: 80, Tenants: 4}, datastore.Redis)
		gridOK(t, fails, err)
		return points
	}
	sweep.Workers = 1
	serial := grid()
	sweep.Workers = 4
	parallel := grid()
	if len(serial) != len(parallel) || len(serial) == 0 {
		t.Fatalf("sweep lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs across worker counts:\nserial   %+v\nparallel %+v",
				i, serial[i], parallel[i])
		}
	}
}

func TestScaleOutScenarioRegistered(t *testing.T) {
	s, ok := scenario.Lookup("scale-out")
	if !ok {
		t.Fatal("scale-out scenario not registered")
	}
	if s.Defaults().Tenants != 16 {
		t.Fatalf("default tenants = %d, want 16", s.Defaults().Tenants)
	}
	res, err := s.Run(bg, scenario.Params{SweepIters: 60, Tenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != len(datastore.Backends()) {
		t.Fatalf("tables = %d, want one per backend", len(res.Tables))
	}
	for i, tab := range res.Tables {
		// Tenants capped at 2 → {1, 2} × two sizes.
		if len(tab.Rows) != 4 {
			t.Fatalf("table %d has %d rows, want 4", i, len(tab.Rows))
		}
		// Every row carries the slowdown column, and the tenants=1 rows
		// are the 1.00 baseline.
		slowCol := len(tab.Columns) - 1
		if tab.Columns[slowCol].Key != "slowdown" {
			t.Fatalf("table %d last column = %q, want slowdown", i, tab.Columns[slowCol].Key)
		}
		for _, row := range tab.Rows {
			if row[0].(int) == 1 && row[slowCol].(float64) != 1.0 {
				t.Fatalf("table %d baseline slowdown = %v, want 1.0", i, row[slowCol])
			}
		}
	}
}

func TestScaleOutTenantTruncation(t *testing.T) {
	cases := map[int][]int{
		0:  {1, 2, 4, 8, 16},
		1:  {1},
		4:  {1, 2, 4},
		16: {1, 2, 4, 8, 16},
		3:  {1, 2},
	}
	for max, want := range cases {
		got := scaleOutTenants(max)
		if len(got) != len(want) {
			t.Errorf("scaleOutTenants(%d) = %v, want %v", max, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("scaleOutTenants(%d) = %v, want %v", max, got, want)
				break
			}
		}
	}
}
