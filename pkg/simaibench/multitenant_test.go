package simaibench

import (
	"context"
	"errors"
	"testing"

	"simaibench/internal/des"
)

func TestPublicScaleOutPoint(t *testing.T) {
	one, err := RunScaleOutChecked(ScaleOutConfig{Tenants: 1, Backend: Redis, SizeMB: 8, TrainIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunScaleOutChecked(ScaleOutConfig{Tenants: 4, Backend: Redis, SizeMB: 8, TrainIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if one.Writes == 0 || four.Writes == 0 {
		t.Fatalf("no writes completed: %+v / %+v", one, four)
	}
	if four.StageMeanS < one.StageMeanS {
		t.Fatalf("contention lowered latency: 1 tenant %v vs 4 tenants %v", one.StageMeanS, four.StageMeanS)
	}
}

// A checked harness surfaces an event-budget trip as a structured error.
func TestPublicCheckedHarnessBudget(t *testing.T) {
	_, err := RunScaleOutChecked(ScaleOutConfig{TrainIters: 50, MaxEvents: 20})
	var be *des.BudgetExceeded
	if !errors.As(err, &be) || be.Events < 20 {
		t.Fatalf("error = %v, want BudgetExceeded after 20 events", err)
	}
}

func TestPublicScaleOutScenario(t *testing.T) {
	res, err := RunScenario(context.Background(), "scale-out",
		ScenarioParams{SweepIters: 60, Tenants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != len(Backends()) {
		t.Fatalf("tables = %d, want one per backend", len(res.Tables))
	}
}

func TestPublicCoSchedule(t *testing.T) {
	tenants, err := CoSchedule(Aurora(8), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 4 || len(tenants[0].Nodes) != 2 {
		t.Fatalf("co-schedule = %+v", tenants)
	}
	if SharedDeployment(NodeLocal) || !SharedDeployment(Redis) {
		t.Fatal("SharedDeployment classification wrong")
	}
}
