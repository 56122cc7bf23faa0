package experiments

import (
	"fmt"
	"math"
	"reflect"
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
		floats: []string{"SizeMB", "SimIterS", "TrainIterS"},
		ints:   []string{"Nodes", "WritePeriod", "ReadPeriod", "TrainIters"},
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

// TestHealthyPathAllocations pins what a healthy cell allocates to what
// the cell allocated before solver and trainer ranks, with and without
// faults, became one machine: a Hold, a CheckpointOp or a per-rank
// closure creeping onto the path of a rank that carries no fault layer
// shows up here as thousands of mallocs, by name. The ceilings are the
// parent commit's counts for the same two cells.
func TestHealthyPathAllocations(t *testing.T) {
	p1 := testing.AllocsPerRun(2, func() {
		checked(t, RunPattern1Checked, Pattern1Config{Nodes: 512, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 600})
	})
	if p1 > 19_263 {
		t.Errorf("Pattern 1, 512 nodes: %v mallocs, ceiling 19263", p1)
	}
	so := testing.AllocsPerRun(5, func() {
		checked(t, RunScaleOutChecked, ScaleOutConfig{Tenants: 16, Backend: datastore.NodeLocal, SizeMB: 8, TrainIters: 300})
	})
	if so > 1_250 {
		t.Errorf("scale-out, 16 tenants: %v mallocs, ceiling 1250", so)
	}
}
