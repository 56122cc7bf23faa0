package simaibench

import (
	"context"
	"testing"
)

func TestPublicResiliencePoint(t *testing.T) {
	healthy, err := RunResilienceChecked(ResilienceConfig{Backend: Redis, TrainIters: 120})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := RunResilienceChecked(ResilienceConfig{Backend: Redis, TrainIters: 120, MTBFS: 5, CkptIntervalS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Writes == 0 || healthy.Crashes != 0 || healthy.WastedS != 0 {
		t.Fatalf("healthy point implausible: %+v", healthy)
	}
	if faulty.Crashes == 0 || faulty.WastedS <= 0 || faulty.CkptWrites == 0 {
		t.Fatalf("faulty point saw no disturbance: %+v", faulty)
	}
	if faulty.EffGBps > faulty.AggGBps {
		t.Fatalf("effective throughput above aggregate: %+v", faulty)
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

func TestPublicFaultPolicyAndNodeSet(t *testing.T) {
	if p, err := ParseFaultPolicy("checkpoint-restart"); err != nil || p != CheckpointRestart {
		t.Fatalf("ParseFaultPolicy = %v, %v", p, err)
	}
	var rec FaultRecovery = ResilienceConfig{CkptIntervalS: 4}.Recovery()
	if rec.Policy != CheckpointRestart || rec.CkptIntervalS != 4 {
		t.Fatalf("Recovery() = %+v", rec)
	}
	if (ResilienceConfig{}).Recovery().Policy != FailStop {
		t.Fatal("zero config should derive fail-stop")
	}
	ns := NewNodeSet(Aurora(4))
	ns.Fail(1)
	if repl, ok := ns.Replacement(1); !ok || repl != 2 {
		t.Fatalf("Replacement = %d, %v", repl, ok)
	}
	if (FaultProfile{MTBFS: 100}).CrashesEnabled() != true {
		t.Fatal("FaultProfile.CrashesEnabled wrong")
	}
}
