package faults

import (
	"math"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/des"
)

func TestHealthyProfileSchedulesNothing(t *testing.T) {
	for _, prof := range []Profile{
		{},
		{MTBFS: math.Inf(1), RepairS: 1},
		{MTBFS: -1, RepairS: 1},
	} {
		env := des.NewEnv()
		in := New(env, cluster.Aurora(8), prof, Hooks{})
		in.Start()
		if env.Pending() != 0 {
			t.Fatalf("profile %+v scheduled %d events", prof, env.Pending())
		}
	}
}

func TestCrashTimelineDeterministicPerSeed(t *testing.T) {
	timeline := func(seed int64) []float64 {
		env := des.NewEnv()
		var crashes []float64
		in := New(env, cluster.Aurora(4), Profile{Seed: seed, MTBFS: 20, RepairS: 1},
			Hooks{Crash: func(node int) { crashes = append(crashes, env.Now()) }})
		in.Start()
		env.RunUntil(500)
		env.Shutdown()
		return crashes
	}
	a, b := timeline(7), timeline(7)
	if len(a) == 0 {
		t.Fatal("no crashes injected over 500 s at MTBF 20")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different crash counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, crash %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := timeline(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical crash timelines")
	}
}

func TestCrashRepairDrivesNodeSet(t *testing.T) {
	env := des.NewEnv()
	var in *Injector
	downDuring := 0
	in = New(env, cluster.Aurora(2), Profile{Seed: 1, MTBFS: 10, RepairS: 2}, Hooks{
		Crash: func(node int) {
			if in.NodeUp(node) {
				t.Error("Crash hook ran with node still up")
			}
			downDuring++
		},
		Repair: func(node int) {
			if !in.NodeUp(node) {
				t.Error("Repair hook ran with node still down")
			}
		},
	})
	in.Start()
	env.RunUntil(200)
	env.Shutdown()
	if downDuring == 0 {
		t.Fatal("no crashes in 200 s at MTBF 10")
	}
	if in.Crashes() != downDuring {
		t.Fatalf("Crashes() = %d, hooks saw %d", in.Crashes(), downDuring)
	}
	if in.NodeSet().UpCount() != 2 {
		t.Fatalf("after horizon both nodes should be repaired, %d up", in.NodeSet().UpCount())
	}
}

func TestEmpiricalMTBFMatchesProfile(t *testing.T) {
	env := des.NewEnv()
	prof := Profile{Seed: 11, MTBFS: 50, RepairS: 0.5}
	in := New(env, cluster.Aurora(16), prof, Hooks{})
	in.Start()
	horizon := 5000.0
	env.RunUntil(horizon)
	env.Shutdown()
	// 16 nodes × 5000 s / 50 s MTBF ≈ 1600 crashes (repair shortens
	// exposure slightly); accept ±15%.
	want := 16 * horizon / prof.MTBFS
	got := float64(in.Crashes())
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("observed %v crashes, want ~%v", got, want)
	}
}
