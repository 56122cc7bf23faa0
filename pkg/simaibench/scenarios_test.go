package simaibench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"simaibench/internal/scenario"
)

// TestScenarioRegistryExposed: RunScenario is the one way in, so every
// registered scenario — the simulated-stack harnesses the facade no
// longer re-exports one by one included — must resolve through it. A
// cancelled context keeps the check to the lookup.
func TestScenarioRegistryExposed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	names := scenario.Names()
	for _, want := range []string{"table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "streaming", "ablation",
		"scale-out", "resilience", "campaign", "gradsync"} {
		if !slices.Contains(names, want) {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
	for _, name := range names {
		if _, err := RunScenario(ctx, name, ScenarioParams{}); !errors.Is(err, context.Canceled) {
			t.Errorf("RunScenario(%q) under a cancelled context = %v, want context.Canceled", name, err)
		}
	}
}

// TestRunScenarioProgrammatic runs a small fig5 sweep through the
// public API and renders it as JSON — the machine-readable path.
func TestRunScenarioProgrammatic(t *testing.T) {
	res, err := RunScenario(context.Background(), "fig5", ScenarioParams{Transfers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "fig5" || len(res.Tables) != 1 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	var buf bytes.Buffer
	if err := ReportResults(&buf, "json", res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Scenario string `json:"scenario"`
			Tables   []struct {
				Rows []map[string]any `json:"rows"`
			} `json:"tables"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON output invalid: %v", err)
	}
	rows := doc.Results[0].Tables[0].Rows
	if len(rows) == 0 {
		t.Fatal("no per-point records in JSON output")
	}
	if _, ok := rows[0]["read_gbps"].(float64); !ok {
		t.Fatalf("record missing read_gbps: %v", rows[0])
	}
}

func TestRunScenarioErrors(t *testing.T) {
	if _, err := RunScenario(context.Background(), "no-such", ScenarioParams{}); err == nil ||
		!strings.Contains(err.Error(), "fig3") {
		t.Fatalf("unknown scenario error should list valid ids, got %v", err)
	}
	if _, err := RunScenario(context.Background(), "all", ScenarioParams{}); err == nil ||
		!strings.Contains(err.Error(), "group") {
		t.Fatalf("running a group as a scenario should error, got %v", err)
	}
}

// The facade's smoke tests of the extension scenarios, each run through
// RunScenario with narrowed params, as library users would.

func TestCampaignScenarioThroughFacade(t *testing.T) {
	res, err := RunScenario(context.Background(), "campaign",
		ScenarioParams{Jobs: 80, Rate: 0.9, Policy: "srpt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 || len(res.Tables[0].Rows) != 1 {
		t.Fatalf("unexpected result shape: %d tables", len(res.Tables))
	}
}

func TestPublicGradSyncScenario(t *testing.T) {
	res, err := RunScenario(context.Background(), "gradsync",
		ScenarioParams{SweepIters: 20, CollAlgo: "ring"})
	if err != nil {
		t.Fatal(err)
	}
	// One table per rank count; no crossover table on a narrowed axis.
	if len(res.Tables) != 3 {
		t.Fatalf("tables = %d, want one per rank count", len(res.Tables))
	}
}

func TestPublicResilienceScenario(t *testing.T) {
	res, err := RunScenario(context.Background(), "resilience",
		ScenarioParams{SweepIters: 60, Tenants: 2, MTBF: 20, CkptInterval: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One disturbance table per backend plus the optimal-interval
	// summary.
	if len(res.Tables) != len(Backends())+1 {
		t.Fatalf("tables = %d, want %d", len(res.Tables), len(Backends())+1)
	}
}

// Guarded scenario runs carry failed cells in Result.Failures instead
// of aborting.
func TestPublicScenarioGuardrails(t *testing.T) {
	res, err := RunScenario(context.Background(), "fig5",
		ScenarioParams{Transfers: 5, MaxEvents: 10})
	if err != nil {
		t.Fatalf("budget-starved scenario aborted instead of reporting failures: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no CellFailure records from budget-starved cells")
	}
	f := res.Failures[0]
	if f.Sweep != "fig5" || !strings.Contains(f.Error, "event budget exceeded") {
		t.Fatalf("failure record = %+v", f)
	}
}
