package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"simaibench/internal/cluster"
	"simaibench/internal/costmodel"
	"simaibench/internal/datastore"
	"simaibench/internal/des"
	"simaibench/internal/mpi"
	"simaibench/internal/scenario"
	"simaibench/internal/stats"
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

// TestGradSyncEventBudget: a too-small DES event budget surfaces as a
// structured error, not a hang, that names the budget spent.
func TestGradSyncEventBudget(t *testing.T) {
	const budget = 20000
	_, err := RunGradSync(GradSyncConfig{Ranks: 512, ModelMB: 4, Algo: "ring", Steps: 400, MaxEvents: budget})
	var be *des.BudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("%d-event budget over 400 steps × 512 ranks should trip, got %v", budget, err)
	}
	if be.Events != budget || be.Guard != (des.Guard{MaxEvents: budget}) {
		t.Fatalf("BudgetExceeded{Guard:%+v Events:%d}, want the budget %d spent", be.Guard, be.Events, budget)
	}
	for _, sub := range []string{"event budget exceeded", "20000 events executed (limit 20000)"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("budget error %q lost %q", err, sub)
		}
	}
}

// TestLPGuardBudgetMatchesSequential: an event budget means the same
// count in every harness — Pattern 1 and scale-out on one Env, gradsync
// in closed form — and a trip reports exactly that many events executed.
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
		"gradsync": func() error {
			_, err := RunGradSync(GradSyncConfig{Ranks: 64, Steps: 400, MaxEvents: budget})
			return err
		},
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

// TestGradSyncRejectsUnknownAlgo: algorithm names are validated before
// any simulation runs.
func TestGradSyncRejectsUnknownAlgo(t *testing.T) {
	if _, err := RunGradSync(GradSyncConfig{Ranks: 8, Algo: "butterfly"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

// TestGradSyncRejectsNonFiniteModelMB: a NaN size used to panic the
// event queue and an infinite one to report NaN with a nil error; both
// are refused, naming the field.
func TestGradSyncRejectsNonFiniteModelMB(t *testing.T) {
	for _, mb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p, err := RunGradSync(GradSyncConfig{Ranks: 8, ModelMB: mb})
		if err == nil || !strings.Contains(err.Error(), "ModelMB") {
			t.Errorf("ModelMB = %v: got %+v, %v; want an error naming ModelMB", mb, p, err)
		}
	}
}

// BenchmarkGradSync measures the harness at the sweep's largest
// rank count for the two algorithms the crossover table compares.
func BenchmarkGradSync(b *testing.B) {
	for _, algo := range []string{"ring", "hier"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunGradSync(GradSyncConfig{
					Ranks: 512, ModelMB: 4, Algo: algo, Steps: 100,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGradSyncMallocsDoNotScaleWithSteps: the closed form keeps one
// step's ready times and two accumulators, so a longer run allocates
// exactly what a shorter one does.
func TestGradSyncMallocsDoNotScaleWithSteps(t *testing.T) {
	mallocs := func(steps int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := RunGradSync(GradSyncConfig{Ranks: 64, ModelMB: 4, Algo: "hier", Steps: steps}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := mallocs(100), mallocs(400); short != long {
		t.Errorf("mallocs grew with steps: %v at 100, %v at 400", short, long)
	}
}

// refGradRank is one trainer as an event-driven state machine on a
// des.Env, the reference RunGradSync's closed form is held to: compute
// (jittered), wait at the gradient barrier, AllReduce, update, next
// step. The barrier bound gmax is precomputed, so a step is two events.
type refGradRank struct {
	env            *des.Env
	rank, steps    int
	computeS       float64
	updateS, collS float64
	gmax           []float64
	step           int
	stepStart      float64
	compute        float64 // this step's jittered compute time
	stepTime, skew *stats.Welford

	gradsReadyFn, endStepFn func()
}

func (g *refGradRank) startStep() {
	s := g.step
	g.compute = g.computeS * (1 + gradSyncJitterFrac*gradSyncJitter(g.rank, s))
	g.env.At(g.stepStart+g.compute, g.gradsReadyFn)
	g.env.At(g.stepStart+g.gmax[s]+g.collS+g.updateS, g.endStepFn)
}

// gradsReady records the straggler wait until the slowest rank reaches
// the AllReduce. It fires before the step's end, so g.step and
// g.compute still describe its step.
func (g *refGradRank) gradsReady() { g.skew.Add(g.gmax[g.step] - g.compute) }

func (g *refGradRank) endStep() {
	now := g.env.Now()
	g.stepTime.Add(now - g.stepStart)
	g.step++
	if g.step < g.steps {
		g.stepStart = now
		g.startStep()
	}
}

// refGradSync runs cfg with one refGradRank per rank on one guarded
// Env. It returns the point RunGradSync must return, and the Env's
// budget error.
func refGradSync(t *testing.T, cfg GradSyncConfig) (GradSyncPoint, error) {
	t.Helper()
	cfg = cfg.withDefaults()
	algo, err := mpi.ParseCollAlgo(cfg.Algo)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.AuroraTopology(cfg.Ranks)
	coll := costmodel.CollAllReduceCost(algo, topo, cfg.Ranks, cfg.ModelMB, nil)
	computeS := gradSyncComputeBaseS + gradSyncComputePerMBS*cfg.ModelMB
	updateS := gradSyncUpdatePerMBS * cfg.ModelMB
	gmax := make([]float64, cfg.Steps)
	horizon := 1.0
	for s := range gmax {
		for r := range cfg.Ranks {
			gmax[s] = max(gmax[s], computeS*(1+gradSyncJitterFrac*gradSyncJitter(r, s)))
		}
		horizon += gmax[s] + coll.TimeS + updateS
	}
	env := des.NewEnv()
	env.SetGuard(des.Guard{MaxEvents: cfg.MaxEvents})
	var stepTime, skew stats.Welford
	ranks := make([]refGradRank, cfg.Ranks)
	for r := range ranks {
		ranks[r] = refGradRank{
			env: env, rank: r, steps: cfg.Steps, computeS: computeS, updateS: updateS,
			collS: coll.TimeS, gmax: gmax, stepTime: &stepTime, skew: &skew,
		}
		g := &ranks[r]
		g.gradsReadyFn, g.endStepFn = g.gradsReady, g.endStep
		env.At(0, g.startStep)
	}
	env.RunUntil(horizon)
	if err := env.Err(); err != nil {
		return GradSyncPoint{}, fmt.Errorf("gradsync (%s, %g MB, %d ranks): %w", algo, cfg.ModelMB, cfg.Ranks, err)
	}
	return GradSyncPoint{
		Ranks: cfg.Ranks, ModelMB: cfg.ModelMB, Algo: algo.String(),
		CollSteps: coll.Steps, CollS: coll.TimeS,
		ComputeS: computeS, StepMeanS: stepTime.Mean(), CommFrac: coll.TimeS / stepTime.Mean(),
		SkewMeanS: skew.Mean(), Steps: stepTime.N() / int64(cfg.Ranks),
	}, nil
}

// TestGradSyncReadyOrderKeysOnTime: ready times tie only when a step
// starts so late that two computes round to one sum, which no config
// the reference can run in a test reaches. So the order is pinned here:
// a tie goes to the lower rank, whatever the computes.
func TestGradSyncReadyOrderKeysOnTime(t *testing.T) {
	ready := []gradReady{
		{t: 2, rank: 0, c: 0.5},
		{t: 1, rank: 3, c: 0.04},
		{t: 1, rank: 1, c: 0.05},
		{t: 1, rank: 2, c: 0.03},
	}
	slices.SortFunc(ready, readyOrder)
	for i, want := range []int{1, 2, 3, 0} {
		if ready[i].rank != want {
			t.Fatalf("order %+v, want ranks 1, 2, 3, 0", ready)
		}
	}
}

// TestGradSyncMatchesEventReference holds the closed form to the event
// machine on a seeded sweep: points equal with ==, and at budgets around
// each edge of the event order (the starts, the first step, the end of
// the run) and at random ones, the same trip — events, time and text.
func TestGradSyncMatchesEventReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 1))
	sizes := []float64{0.25, 4, 64, 1024}
	for i := range 500 {
		cfg := GradSyncConfig{
			Ranks: int(math.Exp2(rng.Float64() * math.Log2(601))), // 1..600, mostly small
			Algo:  GradSyncAlgos[rng.IntN(len(GradSyncAlgos))],
			Steps: 1 + rng.IntN(80),
		}
		switch i % 4 {
		case 0:
			cfg.Ranks = []int{1, 2, 8, 64, 512}[rng.IntN(5)]
		case 1:
			cfg.ModelMB = sizes[rng.IntN(len(sizes))]
		}
		if cfg.ModelMB == 0 {
			cfg.ModelMB = math.Exp2(-4 + 15*rng.Float64())
		}
		want, _ := refGradSync(t, cfg)
		got, err := RunGradSync(cfg)
		if err != nil || got != want {
			t.Fatalf("%+v:\n closed form %+v, %v\n reference   %+v", cfg, got, err, want)
		}
		r, total := int64(cfg.Ranks), int64(cfg.Ranks)*int64(1+2*cfg.Steps)
		for _, budget := range []int64{1, r - 1, r, r + 1, total - 1, total, total + 1, 1 + rng.Int64N(total)} {
			if budget < 1 {
				continue
			}
			cfg.MaxEvents = budget
			_, wantErr := refGradSync(t, cfg)
			_, gotErr := RunGradSync(cfg)
			if (wantErr == nil) != (budget >= total) {
				t.Fatalf("%+v: reference error %v at %d of %d events", cfg, wantErr, budget, total)
			}
			var wantBE, gotBE *des.BudgetExceeded
			errors.As(wantErr, &wantBE)
			errors.As(gotErr, &gotBE)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantBE != nil) != (gotBE != nil) ||
				wantBE != nil && *gotBE != *wantBE {
				t.Fatalf("%+v:\n closed form %v (%+v)\n reference   %v (%+v)", cfg, gotErr, gotBE, wantErr, wantBE)
			}
		}
	}
}
