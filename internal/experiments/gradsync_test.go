package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"simaibench/internal/des"
	"simaibench/internal/scenario"
)

// TestGoldenGradSyncScenario pins the gradsync family's rendered
// tables — metrics and layout — at reduced iterations. Regenerate with
// UPDATE_GOLDEN=1 after an intentional model change.
func TestGoldenGradSyncScenario(t *testing.T) {
	checkGolden(t, "gradsync.golden", renderText(t, "gradsync", scenario.Params{SweepIters: 50}))
}

// TestGradSyncDeterministic: the same configuration twice gives
// bit-equal points — the jitter is hash-derived, not seeded from any
// ambient state.
func TestGradSyncDeterministic(t *testing.T) {
	cfg := GradSyncConfig{Ranks: 64, ModelMB: 4, Algo: "hier", Steps: 80}
	a, err := RunGradSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGradSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}

// TestGradSyncWorkersBitIdentical: the LP fan-out at any worker count
// reproduces the serial metrics to the bit, for every algorithm.
func TestGradSyncWorkersBitIdentical(t *testing.T) {
	for _, algo := range GradSyncAlgos {
		cfg := GradSyncConfig{Ranks: 64, ModelMB: 4, Algo: algo, Steps: 60}
		cfg.Workers = 1
		serial, err := RunGradSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		parallel, err := RunGradSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: workers=4 diverged from serial:\n%+v\n%+v", algo, serial, parallel)
		}
	}
}

// TestGradSyncShape sanity-checks the physics the golden pins: comm
// fraction grows with model size, the step is never shorter than
// compute + collective, and every configured step completes.
func TestGradSyncShape(t *testing.T) {
	small, err := RunGradSync(GradSyncConfig{Ranks: 64, ModelMB: 0.25, Algo: "ring", Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunGradSync(GradSyncConfig{Ranks: 64, ModelMB: 1024, Algo: "ring", Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	if small.CommFrac >= large.CommFrac {
		t.Errorf("comm fraction should grow with size: %.3f at 0.25MB vs %.3f at 1024MB",
			small.CommFrac, large.CommFrac)
	}
	for _, p := range []GradSyncPoint{small, large} {
		if p.Steps != 40 {
			t.Errorf("%g MB: completed %d steps, want 40", p.ModelMB, p.Steps)
		}
		if p.StepMeanS < p.ComputeS+p.CollS {
			t.Errorf("%g MB: step %.6fs shorter than compute %.6fs + coll %.6fs",
				p.ModelMB, p.StepMeanS, p.ComputeS, p.CollS)
		}
		if p.SkewMeanS < 0 {
			t.Errorf("%g MB: negative mean skew %.6fs", p.ModelMB, p.SkewMeanS)
		}
	}
}

// TestGradSyncEventBudget: a too-small DES event budget trips the
// shared guard and surfaces as a structured error, not a hang — and the
// error is a pure function of the run. Which LP reserves the first
// event past the budget, and at what time on its own clock, depends on
// worker scheduling, so neither may reach the text that cell failures,
// reports and the serve error body carry.
func TestGradSyncEventBudget(t *testing.T) {
	const budget = 20000
	cfg := GradSyncConfig{Ranks: 512, ModelMB: 4, Algo: "ring", Steps: 400, MaxEvents: budget}
	var want string
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		for rep := 0; rep < 20; rep++ {
			_, err := RunGradSync(cfg)
			var be *des.BudgetExceeded
			if !errors.As(err, &be) {
				t.Fatalf("workers=%d: %d-event budget over 400 steps × 512 ranks should trip, got %v", workers, budget, err)
			}
			if be.Events != budget || be.Guard != (des.Guard{MaxEvents: budget}) {
				t.Fatalf("workers=%d: BudgetExceeded{Guard:%+v Events:%d}, want the joint budget %d", workers, be.Guard, be.Events, budget)
			}
			if want == "" {
				want = err.Error()
			}
			if got := err.Error(); got != want {
				t.Fatalf("workers=%d rep %d: error text depends on scheduling:\n  %s\n  %s", workers, rep, got, want)
			}
		}
	}
	for _, sub := range []string{"event budget exceeded", "20000 events executed (limit 20000)"} {
		if !strings.Contains(want, sub) {
			t.Errorf("budget error %q lost %q", want, sub)
		}
	}
}

// TestGradSyncRejectsUnknownAlgo: algorithm names are validated before
// any simulation runs.
func TestGradSyncRejectsUnknownAlgo(t *testing.T) {
	if _, err := RunGradSync(GradSyncConfig{Ranks: 8, Algo: "butterfly"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// BenchmarkGradSync measures the DES harness at the sweep's largest
// rank count for the two algorithms the crossover table compares.
func BenchmarkGradSync(b *testing.B) {
	for _, algo := range []string{"ring", "hier"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunGradSync(GradSyncConfig{
					Ranks: 512, ModelMB: 4, Algo: algo, Steps: 100, Workers: 4,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGradSyncMallocsDoNotScaleWithSteps: a rank re-arms the same two
// cached callbacks every step, so a longer run allocates only for its
// longer sample logs, never once per rank-step.
func TestGradSyncMallocsDoNotScaleWithSteps(t *testing.T) {
	const ranks = 64
	mallocs := func(steps int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := RunGradSync(GradSyncConfig{Ranks: ranks, ModelMB: 4, Algo: "hier", Steps: steps}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := mallocs(100), mallocs(400)
	if grew := long - short; grew > ranks {
		t.Errorf("300 more steps of %d ranks cost %v more mallocs (%v → %v), want ≤ %d: a per-rank-step allocation is back",
			ranks, grew, short, long, ranks)
	}
}
