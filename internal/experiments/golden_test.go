package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"simaibench/internal/ai"
	"simaibench/internal/clock"
	"simaibench/internal/scenario"
	"simaibench/internal/simulation"
)

// Golden tests: every table the text reporter renders must be
// byte-identical to the pre-registry Print* output. The files under
// testdata/ were generated by the original printers before the scenario
// redesign, with one uniform change: a blank separator line after every
// artifact (the old CLI printed one after most blocks but omitted the
// trailing one for fig5/ablation; the reporter is consistent). The
// simulated-scale sweeps are bit-deterministic, so these pin metrics as
// well as layout; the real-stack scenarios (table2/3, streaming) are
// pinned here on layout with synthetic stats — their measured
// virtual-clock numbers by the *_virtual goldens and determinism_test.go.

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the pre-redesign printers.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// renderText runs a registered scenario and renders it with the text
// reporter — the exact path `cmd/experiments -format text` uses.
func renderText(t *testing.T, name string, p scenario.Params) []byte {
	t.Helper()
	s, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	res, err := s.Run(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	reporter, err := scenario.NewReporter("text")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reporter.Report(&buf, []*scenario.Result{res}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenFig3Scenario(t *testing.T) {
	checkGolden(t, "fig3.golden", renderText(t, "fig3", scenario.Params{SweepIters: 100}))
}

func TestGoldenFig4Scenario(t *testing.T) {
	checkGolden(t, "fig4.golden", renderText(t, "fig4", scenario.Params{SweepIters: 100}))
}

func TestGoldenFig5Scenario(t *testing.T) {
	checkGolden(t, "fig5.golden", renderText(t, "fig5", scenario.Params{Transfers: 10}))
}

func TestGoldenFig6Scenario(t *testing.T) {
	checkGolden(t, "fig6.golden", renderText(t, "fig6", scenario.Params{SweepIters: 100}))
}

func TestGoldenAblationTables(t *testing.T) {
	// The golden file was generated with per-table iteration counts
	// (100/100/50), so assemble the Result from the harnesses directly
	// and render it through the same text reporter.
	mds, fails, err := mdsAblationGrid(bg, scenario.Params{SweepIters: 100}, []float64{0.00001, 0.0004})
	gridOK(t, fails, err)
	cache, fails, err := cacheAblationGrid(bg, scenario.Params{SweepIters: 100}, []float64{8.75, 1000})
	gridOK(t, fails, err)
	incast, fails, err := incastAblationGrid(bg, scenario.Params{SweepIters: 50}, []float64{0, 0.010})
	gridOK(t, fails, err)
	res := &scenario.Result{Scenario: "ablation", Tables: []scenario.Table{
		mdsAblationTable(mds), cacheAblationTable(cache), incastAblationTable(incast),
	}}
	reporter, _ := scenario.NewReporter("text")
	var buf bytes.Buffer
	if err := reporter.Report(&buf, []*scenario.Result{res}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablation.golden", buf.Bytes())
}

// syntheticValidation pins the Table 2/3 layout without a wall-clock
// run (the stats are the EXPERIMENTS.md reference numbers).
func syntheticValidation() (orig, mini OneToOneResult) {
	orig = OneToOneResult{
		Sim:   simulation.Report{Iterations: 1590, Writes: 30, IterMean: 0.0356, IterStd: 0.0485},
		Train: ai.Report{Iterations: 800, Reads: 30, IterMean: 0.0693, IterStd: 0.1112}}
	mini = OneToOneResult{
		Sim:   simulation.Report{Iterations: 2070, Writes: 40, IterMean: 0.0328, IterStd: 0.0130},
		Train: ai.Report{Iterations: 800, Reads: 40, IterMean: 0.0626, IterStd: 0.0140}}
	return orig, mini
}

func TestGoldenTable2(t *testing.T) {
	orig, mini := syntheticValidation()
	var buf bytes.Buffer
	if err := scenario.WriteTable(&buf, table2Table(orig, mini)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", buf.Bytes())
}

func TestGoldenTable3(t *testing.T) {
	orig, mini := syntheticValidation()
	var buf bytes.Buffer
	if err := scenario.WriteTable(&buf, table3Table(orig, mini)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.golden", buf.Bytes())
}

// virtualGoldenParams pin the virtual-clock validation goldens: a
// scaled-down run whose output is bit-deterministic per seed under
// clock.Virtual, so — unlike the wall-mode tables, which are pinned on
// layout with synthetic stats — these pin the *measured* numbers too.
var virtualGoldenParams = scenario.Params{
	TrainIters: 200, TimeScale: 0.01, Clock: clock.KindVirtual,
}

func TestGoldenTable2Virtual(t *testing.T) {
	checkGolden(t, "table2_virtual.golden", renderText(t, "table2", virtualGoldenParams))
}

func TestGoldenTable3Virtual(t *testing.T) {
	checkGolden(t, "table3_virtual.golden", renderText(t, "table3", virtualGoldenParams))
}

func TestGoldenStreamingLayout(t *testing.T) {
	var buf bytes.Buffer
	err := scenario.WriteTable(&buf, streamingTable([]StreamingPoint{
		{Method: MethodStagedPolling, SizeMB: 2, LatencyMeanS: 0.0123456, GBps: 0.4567},
		{Method: MethodStreamInProc, SizeMB: 2, LatencyMeanS: 0.0012345, GBps: 1.2345},
		{Method: MethodStreamTCP, SizeMB: 2, LatencyMeanS: 0.0023456, GBps: 0.9876},
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "streaming.golden", buf.Bytes())
}

// TestRegistryHasAllSeedScenarios guards the registry contents: every
// pre-redesign experiment id must be present, and the "all" group must
// reproduce the paper's presentation order.
func TestRegistryHasAllSeedScenarios(t *testing.T) {
	for _, name := range []string{"table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "streaming", "ablation"} {
		s, ok := scenario.Lookup(name)
		if !ok {
			t.Errorf("scenario %q missing from registry", name)
			continue
		}
		if s.Description() == "" {
			t.Errorf("scenario %q has no description", name)
		}
	}
	members, err := scenario.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6"}
	if len(members) != len(wantOrder) {
		t.Fatalf("group all has %d members, want %d", len(members), len(wantOrder))
	}
	for i, m := range members {
		if m.Name() != wantOrder[i] {
			t.Fatalf("group all[%d] = %s, want %s", i, m.Name(), wantOrder[i])
		}
	}
	if _, err := scenario.Resolve("not-a-scenario"); err == nil {
		t.Fatal("Resolve of unknown id should error")
	}
}
