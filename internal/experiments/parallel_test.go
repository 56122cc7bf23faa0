package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/scenario"
)

// TestLPScenarioEquivalenceByteIdentical: registered scenarios render
// byte-identical text reports at workers=1 and workers=4 — the
// end-to-end artifact equivalence the Workers knob promises. Only
// gradsync consumes it; the others pin that the knob is inert there.
func TestLPScenarioEquivalenceByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		p    scenario.Params
	}{
		{"fig3", scenario.Params{SweepIters: 60}},
		{"fig4", scenario.Params{SweepIters: 60}},
		{"scale-out", scenario.Params{SweepIters: 60, Tenants: 4}},
		{"resilience", scenario.Params{SweepIters: 120, Tenants: 2}},
		{"campaign", scenario.Params{Jobs: 200, Tenants: 4}},
		{"gradsync", scenario.Params{SweepIters: 20}},
	}
	for _, c := range cases {
		p1 := c.p
		p1.Workers = 1
		pN := c.p
		pN.Workers = 4
		a := renderScenarioText(t, c.name, p1)
		b := renderScenarioText(t, c.name, pN)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: workers=4 report differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				c.name, a, b)
		}
	}
}

// TestLPGuardBudgetMatchesSequential: an event budget means the same
// count whether a cell runs on one Env (Pattern 1, scale-out) or as a
// set of LPs (gradsync, any worker count) — the joint budget is
// enforced across LPs, not per LP, and a trip reports exactly that many
// events executed.
func TestLPGuardBudgetMatchesSequential(t *testing.T) {
	const budget = 500
	trips := map[string]func() error{
		"pattern1": func() error {
			_, err := RunPattern1Checked(Pattern1Config{Nodes: 8, Backend: datastore.NodeLocal, SizeMB: 8,
				TrainIters: 600, MaxEvents: budget})
			return err
		},
		"scale-out": func() error {
			_, err := RunScaleOutChecked(ScaleOutConfig{Tenants: 4, Backend: datastore.NodeLocal, SizeMB: 8,
				TrainIters: 600, MaxEvents: budget})
			return err
		},
	}
	for _, w := range []int{1, 2, 4} {
		trips[fmt.Sprintf("gradsync workers=%d", w)] = func() error {
			_, err := RunGradSync(GradSyncConfig{Ranks: 64, Steps: 400, MaxEvents: budget, Workers: w})
			return err
		}
	}
	for name, trip := range trips {
		var be *des.BudgetExceeded
		if err := trip(); !errors.As(err, &be) {
			t.Fatalf("%s did not trip the budget: %v", name, err)
		}
		if be.Guard != (des.Guard{MaxEvents: budget}) || be.Events != budget {
			t.Errorf("%s: BudgetExceeded{Guard:%+v Events:%d}, want the %d-event budget spent exactly",
				name, be.Guard, be.Events, budget)
		}
	}
}

// TestLPMergeLogs pins the canonical merge order: ascending time, ties
// by LP index, stable within an LP.
func TestLPMergeLogs(t *testing.T) {
	a := &sampleLog{}
	b := &sampleLog{}
	c := &sampleLog{} // empty logs must be harmless
	a.add(1, 10)
	a.add(2, 11)
	a.add(2, 12)
	b.add(0.5, 20)
	b.add(2, 21)
	var got []float64
	mergeLogs([]*sampleLog{a, b, c}, func(v float64) { got = append(got, v) })
	want := []float64{20, 10, 11, 12, 21}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("merge order %v, want %v", got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d samples, want %d", len(got), len(want))
	}
}
