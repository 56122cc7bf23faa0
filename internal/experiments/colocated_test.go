package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"simaibench/internal/datastore"
)

// colocatedEntries are the three entry points over runColocated and the
// two of Pattern 2, each with a small valid config and its float and int
// fields. The event
// budget bounds what a bad horizon can cost a failing run of this test.
var colocatedEntries = []struct {
	prefix string
	base   any
	run    func(cfg any) (any, error)
	floats []string
	ints   []string
}{
	{
		prefix: "pattern1 (", base: Pattern1Config{TrainIters: 30, MaxEvents: 1e6},
		run:    func(c any) (any, error) { return RunPattern1Checked(c.(Pattern1Config)) },
		floats: []string{"SizeMB", "SimIterS", "TrainIterS"},
		ints:   []string{"Nodes", "WritePeriod", "ReadPeriod", "TrainIters"},
	},
	{
		prefix: "scale-out (", base: ScaleOutConfig{TrainIters: 30, MaxEvents: 1e6},
		run:    func(c any) (any, error) { return RunScaleOutChecked(c.(ScaleOutConfig)) },
		floats: []string{"SizeMB", "SimIterS", "TrainIterS"},
		ints:   []string{"Tenants", "NodesPerTenant", "WritePeriod", "ReadPeriod", "TrainIters"},
	},
	{
		prefix: "resilience (", base: ResilienceConfig{TrainIters: 30, MaxEvents: 1e6},
		run:    func(c any) (any, error) { return RunResilienceChecked(c.(ResilienceConfig)) },
		floats: []string{"SizeMB", "SimIterS", "TrainIterS", "MTBFS", "RepairS", "CkptIntervalS", "CkptSizeMB"},
		ints:   []string{"Tenants", "NodesPerTenant", "WritePeriod", "ReadPeriod", "TrainIters"},
	},
	{
		prefix: "fig5 (", base: Fig5Config{SizeMB: 1, Transfers: 5, MaxEvents: 1e6},
		run:    func(c any) (any, error) { return RunFig5Checked(c.(Fig5Config)) },
		floats: []string{"SizeMB"},
		ints:   []string{"Transfers"},
	},
	{
		prefix: "fig6 (", base: Fig6Config{SizeMB: 1, TrainIters: 30, MaxEvents: 1e6},
		run:    func(c any) (any, error) { return RunFig6Checked(c.(Fig6Config)) },
		floats: []string{"SizeMB", "TrainIterS"},
		ints:   []string{"Nodes", "ReadPeriod", "TrainIters"},
	},
}

// TestColocatedBadInput: behind a …Checked signature bad input is either
// given a meaning or refused, never a panic, a hang or a garbage point.
// For every field of the five configs: NaN and ±Inf are an
// error that carries the entry point's prefix and names the field (an
// infinite MTBFS alone is legal: never), and a negative value is the
// unset value — the harness default, or for the knob that switches a
// feature on (a checkpoint cadence), off.
func TestColocatedBadInput(t *testing.T) {
	for _, e := range colocatedEntries {
		run := func(t *testing.T, field string, set func(reflect.Value)) (pt any, err error) {
			t.Helper()
			cfg := reflect.New(reflect.TypeOf(e.base)).Elem()
			cfg.Set(reflect.ValueOf(e.base))
			set(cfg.FieldByName(field))
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s%s = %v: panicked: %v", e.prefix, field, cfg.FieldByName(field), p)
				}
			}()
			return e.run(cfg.Interface())
		}
		unset := func(t *testing.T, field string) any {
			pt, err := run(t, field, func(v reflect.Value) { v.SetZero() })
			if err != nil {
				t.Fatalf("%s%s unset: %v", e.prefix, field, err)
			}
			return pt
		}
		for _, field := range e.floats {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				pt, err := run(t, field, func(v reflect.Value) { v.SetFloat(bad) })
				if field == "MTBFS" && math.IsInf(bad, 0) {
					if err != nil || !reflect.DeepEqual(pt, unset(t, field)) {
						t.Errorf("%sMTBFS = %v: got %+v, %v; want the healthy run", e.prefix, bad, pt, err)
					}
					continue
				}
				if err == nil || !strings.HasPrefix(err.Error(), e.prefix) || !strings.Contains(err.Error(), field+" = ") {
					t.Errorf("%s%s = %v: got %+v, error %v; want an error naming the field", e.prefix, field, bad, pt, err)
				}
			}
			if pt, err := run(t, field, func(v reflect.Value) { v.SetFloat(-1) }); err != nil || !reflect.DeepEqual(pt, unset(t, field)) {
				t.Errorf("%s%s = -1: got %+v, %v; want the run with the field unset", e.prefix, field, pt, err)
			}
		}
		for _, field := range e.ints {
			if pt, err := run(t, field, func(v reflect.Value) { v.SetInt(-1) }); err != nil || !reflect.DeepEqual(pt, unset(t, field)) {
				t.Errorf("%s%s = -1: got %+v, %v; want the run with the field unset", e.prefix, field, pt, err)
			}
		}
	}
}

// TestPattern2RefusesLocalOnlyBackends: both Pattern 2 harnesses read
// the staged arrays from another node, so a backend without a remote
// path — node-local, or a value outside the enum — is an error naming
// the Backend field, returned before anything is built, not a panic in
// the cost model.
func TestPattern2RefusesLocalOnlyBackends(t *testing.T) {
	for _, c := range []struct {
		prefix string
		run    func(datastore.Backend) (any, error)
	}{
		{"fig5 (", func(b datastore.Backend) (any, error) {
			return RunFig5Checked(Fig5Config{Backend: b, SizeMB: 1, Transfers: 5})
		}},
		{"fig6 (", func(b datastore.Backend) (any, error) {
			return RunFig6Checked(Fig6Config{Backend: b, SizeMB: 1, Nodes: 2, TrainIters: 30})
		}},
	} {
		for _, b := range []datastore.Backend{datastore.NodeLocal, datastore.NumBackends} {
			pt, err := func() (pt any, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panicked: %v", p)
					}
				}()
				return c.run(b)
			}()
			if err == nil || !strings.HasPrefix(err.Error(), c.prefix) || !strings.Contains(err.Error(), "Backend = "+b.String()) {
				t.Errorf("%sBackend = %v: got %+v, error %v; want an error naming the Backend field", c.prefix, b, pt, err)
			}
		}
	}
}

// TestHealthyPathAllocations pins what a healthy cell allocates: a few
// slices per rank table and transfer table, the model's resources and a
// logarithmic number of event-queue blocks. A Hold, a checkpoint or any
// other per-rank object creeping onto the path of a rank that carries no
// fault layer shows up here as thousands of mallocs, by name. The ceilings are
// the counts of the rank tables on the same two cells, measured with the
// collector held off: a cycle that ends during a run can add a malloc
// or two that no line of the cell makes.
func TestHealthyPathAllocations(t *testing.T) {
	p1 := allocsWithoutGC(2, func() {
		checked(t, RunPattern1Checked, Pattern1Config{Nodes: 512, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 600})
	})
	if p1 > 34 {
		t.Errorf("Pattern 1, 512 nodes: %v mallocs, ceiling 34", p1)
	}
	so := allocsWithoutGC(5, func() {
		checked(t, RunScaleOutChecked, ScaleOutConfig{Tenants: 16, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 300})
	})
	if so > 27 {
		t.Errorf("scale-out, 16 tenants: %v mallocs, ceiling 27", so)
	}
}

// TestColocatedAllocationsDoNotScaleWithRanks: no co-located cell
// allocates per rank or per node. Pattern 1 on node-local at 1024 nodes
// (12 288 ranks) allocates within 16 mallocs of the same cell at 64
// nodes (768 ranks): what grows with the cell is the event queue's slab
// blocks, heap and lane pool, logarithmically.
func TestColocatedAllocationsDoNotScaleWithRanks(t *testing.T) {
	mallocs := func(nodes int) float64 {
		return allocsWithoutGC(2, func() {
			checked(t, RunPattern1Checked, Pattern1Config{Nodes: nodes, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 600})
		})
	}
	small, large := mallocs(64), mallocs(1024)
	if large-small > 16 {
		t.Errorf("Pattern 1 node-local: %v mallocs at 64 nodes, %v at 1024, want within 16", small, large)
	}
}

// TestResilienceAllocationsDoNotScaleWithCheckpoints: checkpointing
// allocates per rank table, not per solver rank nor per checkpoint. A
// healthy resilience cell with checkpoints every 16 s or every 1 s
// allocates within 24 mallocs of the same cell with checkpointing off,
// on every backend at 4 and 16 tenants: the write and restore tables,
// their inner transfer tables and the rows of the three.
func TestResilienceAllocationsDoNotScaleWithCheckpoints(t *testing.T) {
	for _, b := range datastore.Backends() {
		for _, tenants := range []int{4, 16} {
			mallocs := func(ckpt float64) float64 {
				return allocsWithoutGC(2, func() {
					checked(t, RunResilienceChecked, ResilienceConfig{Tenants: tenants, Backend: b, CkptIntervalS: ckpt})
				})
			}
			off := mallocs(0)
			for _, ckpt := range []float64{16, 1} {
				if on := mallocs(ckpt); on-off > 24 {
					t.Errorf("%v, %d tenants: %v mallocs with checkpoints every %g s, %v with them off, want within 24",
						b, tenants, on, ckpt, off)
				}
			}
		}
	}
}

// allocsWithoutGC is testing.AllocsPerRun with the collector off: it
// collects once, disables GC for the runs and restores the old setting.
func allocsWithoutGC(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
